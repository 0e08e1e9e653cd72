package dsp

import (
	"math"
	"testing"

	"lightwave/internal/fec"
)

// The Fidelity tests pin the paper-facing numbers of the receiver model
// (EXPERIMENTS.md Figs 11-13) as asserted tolerances, so a refactor of the
// BER or FEC math cannot drift them unnoticed.

// TestFidelityCleanChannelSensitivity: the default lane is calibrated to
// reach the KP4 threshold 2e-4 at −9 dBm on a clean channel.
func TestFidelityCleanChannelSensitivity(t *testing.T) {
	r := DefaultReceiver()
	clean := MPICondition{MPIDB: NoMPI}
	if ber := r.BER(-9, clean); math.Abs(ber/fec.KP4Threshold-1) > 1e-9 {
		t.Errorf("clean-channel BER at −9 dBm = %.12g, want 2e-4", ber)
	}
	sens, err := r.Sensitivity(fec.KP4Threshold, clean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sens-(-9)) > 1e-6 {
		t.Errorf("clean-channel KP4 sensitivity = %.8f dBm, want −9", sens)
	}
}

// innerSensitivityGainDB is Fig 12's quantity: how much less received power
// reaches the KP4 threshold once the inner soft-decision code runs ahead of
// KP4.
func innerSensitivityGainDB(t *testing.T, r Receiver, mpi MPICondition) float64 {
	t.Helper()
	without, err := r.Sensitivity(fec.KP4Threshold, mpi)
	if err != nil {
		t.Fatal(err)
	}
	with, err := r.SensitivityThrough(fec.KP4Threshold, mpi, fec.DefaultInner().Transfer)
	if err != nil {
		t.Fatal(err)
	}
	return without - with
}

// TestFidelityFig12SensitivityGain: the paper reports a 1.6 dB sensitivity
// gain from the inner SFEC (at MPI −32 dB). The model is calibrated to that
// class of gain on the thermal-noise-limited clean channel, where it gives
// 1.76 dB; under MPI −32 dB its multiplicative beat noise amplifies the
// benefit to 3.01 dB — the deviation EXPERIMENTS.md records. Both values
// are pinned, and the clean one is held inside 0.2 dB of the paper's.
func TestFidelityFig12SensitivityGain(t *testing.T) {
	r := DefaultReceiver()
	clean := innerSensitivityGainDB(t, r, MPICondition{MPIDB: NoMPI})
	if math.Abs(clean-1.76) > 0.02 {
		t.Errorf("clean-channel inner-SFEC gain = %.3f dB, want 1.76 ± 0.02", clean)
	}
	if math.Abs(clean-1.6) > 0.2 {
		t.Errorf("clean-channel inner-SFEC gain = %.3f dB, more than 0.2 dB from the paper's 1.6", clean)
	}
	mpi := innerSensitivityGainDB(t, r, MPICondition{MPIDB: -32})
	if math.Abs(mpi-3.01) > 0.02 {
		t.Errorf("inner-SFEC gain at MPI −32 dB = %.3f dB, want 3.01 ± 0.02 (recorded deviation from the paper's 1.6)", mpi)
	}
}

// TestFidelityFig13FleetLanes: every one of the pod's 6144 receiving lanes
// sits under the KP4 threshold, the worst by more than 1.5 decades.
func TestFidelityFig13FleetLanes(t *testing.T) {
	r := DefaultReceiver()
	sens, err := r.Sensitivity(fec.KP4Threshold, MPICondition{MPIDB: NoMPI})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFleetBERConfig()
	cfg.SensitivityDBm = sens
	res := r.FleetBER(cfg)
	if len(res.BERs) != 6144 {
		t.Fatalf("sampled %d lanes, want 6144", len(res.BERs))
	}
	if over := res.OverThreshold(fec.KP4Threshold); over != 0 {
		t.Errorf("%d lanes above the 2e-4 KP4 threshold", over)
	}
	if decades := math.Log10(fec.KP4Threshold / res.Worst); decades < 1.5 {
		t.Errorf("worst lane %.3g is %.2f decades under the threshold, want ≥ 1.5", res.Worst, decades)
	}
}
