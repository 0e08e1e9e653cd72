package avail

import (
	"math"
	"testing"
)

func TestCubeMTBFRoundTrip(t *testing.T) {
	r := DefaultRates()
	for _, a := range []float64{0.9, 0.99, 0.999} {
		mtbf := r.CubeMTBFHours(a)
		got := mtbf / (mtbf + r.CubeMTTRHours)
		if math.Abs(got-a) > 1e-12 {
			t.Errorf("availability %g: MTBF %g h implies %g", a, mtbf, got)
		}
	}
	if !math.IsInf(r.CubeMTBFHours(1), 1) {
		t.Errorf("availability 1 should imply infinite MTBF")
	}
}

func TestDefaultRatesMeetOCSAvailTarget(t *testing.T) {
	// The paper reports >99.98% per-OCS availability (§4.1.1); the
	// default table must be consistent with it.
	r := DefaultRates()
	if a := r.OCSMTBFHours / (r.OCSMTBFHours + r.OCSRepairHours); a < 0.9998 {
		t.Errorf("default OCS availability %.6f below the 99.98%% target", a)
	}
}

func TestDefaultRatesArePositive(t *testing.T) {
	r := DefaultRates()
	for name, v := range map[string]float64{
		"CubeMTTRHours":         r.CubeMTTRHours,
		"OCSMTBFHours":          r.OCSMTBFHours,
		"OCSRepairHours":        r.OCSRepairHours,
		"TransceiverBERPerHour": r.TransceiverBERPerHour,
		"CircuitFlapPerHour":    r.CircuitFlapPerHour,
		"FlapMeanSeconds":       r.FlapMeanSeconds,
		"DrainStuckProb":        r.DrainStuckProb,
		"PodBackendMTBFHours":   r.PodBackendMTBFHours,
		"OCSMaintenancePerYear": r.OCSMaintenancePerYear,
	} {
		if v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
}
