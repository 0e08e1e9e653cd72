package fec

import (
	"math"
	"testing"
)

// The Fidelity tests pin the paper-facing numbers of the FEC models
// (EXPERIMENTS.md Fig 12) as asserted tolerances, so a refactor of the
// transfer math cannot drift them unnoticed.

// TestFidelityKP4 pins the outer code's published operating point: KP4 is
// specified to clean a 2e-4 channel to effectively error-free.
func TestFidelityKP4(t *testing.T) {
	rs := NewKP4()
	if rs.n != 544 || rs.k != 514 || rs.t != 15 {
		t.Fatalf("KP4 is RS(%d,%d) t=%d, want RS(544,514) t=15", rs.n, rs.k, rs.t)
	}
	if got := rs.Transfer(KP4Threshold); got > 1e-13 {
		t.Errorf("KP4 output at the 2e-4 threshold = %g, want ≤ 1e-13", got)
	}
	// The threshold sits on the waterfall, not far below it: five times
	// the input already costs nine decades of output.
	if got := rs.Transfer(5 * KP4Threshold); got < 1e-7 {
		t.Errorf("KP4 output at 1e-3 = %g, want ≥ 1e-7", got)
	}
}

// TestFidelityInnerGain pins the inner code's calibration: a net 3.2
// electrical dB of Q-factor gain, i.e. the 1.6 optical dB of Fig 12 on an
// intensity-modulated direct-detection link.
func TestFidelityInnerGain(t *testing.T) {
	inner := DefaultInner()
	for _, p := range []float64{1e-2, 2e-3, KP4Threshold} {
		electricalDB := 20 * math.Log10(QInv(inner.Transfer(p))/QInv(p))
		if math.Abs(electricalDB/2-1.6) > 0.001 {
			t.Errorf("inner gain at p=%g: %.4f optical dB, want 1.6", p, electricalDB/2)
		}
	}
}
