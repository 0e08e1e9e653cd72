package dsp

import "testing"

func TestEqualizerRecoversPenalty(t *testing.T) {
	e := DefaultEqualizer()
	raw := 2.0
	res := e.ResidualPenaltyDB(raw)
	if res >= raw {
		t.Fatalf("equalizer did not help: %v -> %v", raw, res)
	}
	if res <= 0 {
		t.Fatalf("residual %v not positive", res)
	}
}

func TestEqualizerNeverWorsens(t *testing.T) {
	e := Equalizer{Taps: 1, RecoveryFraction: 0.1, NoiseEnhancementDB: 5}
	raw := 0.5
	if res := e.ResidualPenaltyDB(raw); res > raw {
		t.Fatalf("residual %v worse than raw %v", res, raw)
	}
}

func TestEqualizerZeroPenalty(t *testing.T) {
	e := DefaultEqualizer()
	if e.ResidualPenaltyDB(0) != 0 {
		t.Fatal("zero penalty should stay zero")
	}
	if e.ResidualPenaltyDB(-1) != 0 {
		t.Fatal("negative penalty should clamp to zero")
	}
}
