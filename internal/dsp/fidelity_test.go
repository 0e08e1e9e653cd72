package dsp

import (
	"math"
	"testing"

	"lightwave/internal/fec"
)

// The Fidelity tests pin receiver-model internals that no figure prints;
// internal/figures holds the paper-facing numbers of Figs 11-13.

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
