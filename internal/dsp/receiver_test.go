package dsp

import (
	"math"
	"testing"

	"lightwave/internal/fec"
)

func TestCalibrationHitsSensitivity(t *testing.T) {
	r := DefaultReceiver()
	clean := MPICondition{MPIDB: NoMPI}
	ber := r.BER(-9, clean)
	if math.Abs(math.Log10(ber)-math.Log10(fec.KP4Threshold)) > 0.05 {
		t.Fatalf("BER at −9 dBm = %.3g, want ≈ 2e-4", ber)
	}
}

func TestBERMonotoneInPower(t *testing.T) {
	r := DefaultReceiver()
	clean := MPICondition{MPIDB: NoMPI}
	prev := 1.0
	for p := -14.0; p <= -2; p += 0.5 {
		b := r.BER(p, clean)
		if b >= prev {
			t.Fatalf("BER not decreasing at %v dBm: %g >= %g", p, b, prev)
		}
		prev = b
	}
}

func TestMPIDegradesBER(t *testing.T) {
	r := DefaultReceiver()
	clean := r.BER(-9, MPICondition{MPIDB: NoMPI})
	for _, mpi := range []float64{-35, -32, -29} {
		b := r.BER(-9, MPICondition{MPIDB: mpi})
		if b <= clean {
			t.Fatalf("MPI %v dB did not degrade BER", mpi)
		}
	}
	// Stronger MPI must be worse.
	if r.BER(-9, MPICondition{MPIDB: -29}) <= r.BER(-9, MPICondition{MPIDB: -35}) {
		t.Fatal("BER not monotone in MPI level")
	}
}

func TestOIMRecoversSensitivity(t *testing.T) {
	// Fig 11a: at MPI −32 dB and the KP4 threshold, OIM improves receiver
	// sensitivity by more than 1 dB.
	r := DefaultReceiver()
	without, err := r.Sensitivity(fec.KP4Threshold, MPICondition{MPIDB: -32})
	if err != nil {
		t.Fatal(err)
	}
	with, err := r.Sensitivity(fec.KP4Threshold, MPICondition{MPIDB: -32, OIM: true})
	if err != nil {
		t.Fatal(err)
	}
	gain := without - with
	if gain < 1.0 {
		t.Fatalf("OIM sensitivity gain = %.2f dB at MPI −32 dB, paper says >1 dB", gain)
	}
	if gain > 4.0 {
		t.Fatalf("OIM gain %.2f dB implausibly large", gain)
	}
}

func TestOIMNoEffectOnCleanChannel(t *testing.T) {
	r := DefaultReceiver()
	a := r.BER(-9, MPICondition{MPIDB: NoMPI})
	b := r.BER(-9, MPICondition{MPIDB: NoMPI, OIM: true})
	if a != b {
		t.Fatal("OIM changed a clean channel")
	}
}

func TestSensitivityOrdering(t *testing.T) {
	// Sensitivity (power needed) must worsen as MPI grows, and OIM must
	// sit between clean and unmitigated.
	r := DefaultReceiver()
	clean, _ := r.Sensitivity(fec.KP4Threshold, MPICondition{MPIDB: NoMPI})
	oim, _ := r.Sensitivity(fec.KP4Threshold, MPICondition{MPIDB: -32, OIM: true})
	raw, _ := r.Sensitivity(fec.KP4Threshold, MPICondition{MPIDB: -32})
	if !(clean < oim && oim < raw) {
		t.Fatalf("sensitivity ordering broken: clean %.2f, oim %.2f, raw %.2f", clean, oim, raw)
	}
}

func TestSensitivityUnreachable(t *testing.T) {
	r := DefaultReceiver()
	// At catastrophic MPI the KP4 threshold may be unreachable — the
	// error-floor behaviour the OIM algorithm exists to fix.
	if _, err := r.Sensitivity(1e-15, MPICondition{MPIDB: -15}); err == nil {
		t.Fatal("expected unreachable target")
	}
}

func TestBERErrorFloorUnderSevereMPI(t *testing.T) {
	// Under severe MPI, more power does not help much: the beat noise
	// scales with signal power (multiplicative impairment).
	r := DefaultReceiver()
	sev := MPICondition{MPIDB: -20}
	b1 := r.BER(-6, sev)
	b2 := r.BER(0, sev)
	if b2 < b1/50 {
		t.Fatalf("severe MPI should floor the BER: %.3g -> %.3g over 6 dB", b1, b2)
	}
}

func TestPostFECBER(t *testing.T) {
	r := DefaultReceiver()
	stack := fec.NewConcatenated()
	// 1.5 dB below raw sensitivity the pre-FEC BER is worse than 2e-4, but
	// the concatenated stack must still clean it (Fig 12's point).
	pre := r.BER(-10.5, MPICondition{MPIDB: NoMPI})
	if pre <= fec.KP4Threshold {
		t.Fatalf("test setup: pre-FEC BER %.3g not above threshold", pre)
	}
	post := r.PostFECBER(-10.5, MPICondition{MPIDB: NoMPI}, stack)
	if post > 1e-12 {
		t.Fatalf("post-FEC BER = %.3g, want clean", post)
	}
}

func TestLevelsExtinctionRatio(t *testing.T) {
	r := DefaultReceiver()
	pr := r.Prepare()
	lv := pr.levels(1e-4)
	er := math.Pow(10, r.ExtinctionRatioDB/10)
	if math.Abs(lv[3]/lv[0]-er) > 1e-9 {
		t.Fatalf("P3/P0 = %v, want %v", lv[3]/lv[0], er)
	}
	// Equal spacing.
	d1, d2, d3 := lv[1]-lv[0], lv[2]-lv[1], lv[3]-lv[2]
	if math.Abs(d1-d2) > 1e-15 || math.Abs(d2-d3) > 1e-15 {
		t.Fatal("levels not equally spaced")
	}
	// Average preserved.
	if avg := (lv[0] + lv[1] + lv[2] + lv[3]) / 4; math.Abs(avg-1e-4) > 1e-12 {
		t.Fatalf("average = %v", avg)
	}
}

func TestDbmConversions(t *testing.T) {
	if w := dbmToWatts(0); math.Abs(w-1e-3) > 1e-12 {
		t.Fatalf("0 dBm = %v W", w)
	}
	if d := wattsToDBm(1e-3); math.Abs(d) > 1e-9 {
		t.Fatalf("1 mW = %v dBm", d)
	}
	for _, dbm := range []float64{-30, -9, 3} {
		if got := wattsToDBm(dbmToWatts(dbm)); math.Abs(got-dbm) > 1e-9 {
			t.Fatalf("round trip %v -> %v", dbm, got)
		}
	}
}

func TestOIMSuppressionConfigurable(t *testing.T) {
	r := DefaultReceiver()
	weak := r.BER(-9, MPICondition{MPIDB: -30, OIM: true, OIMSuppressionDB: 3})
	strong := r.BER(-9, MPICondition{MPIDB: -30, OIM: true, OIMSuppressionDB: 20})
	if strong >= weak {
		t.Fatal("stronger suppression should give lower BER")
	}
}

func wattsToDBm(w float64) float64 {
	return 10 * math.Log10(w/1e-3)
}
