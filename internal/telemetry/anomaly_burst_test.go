package telemetry

import (
	"bytes"
	"log/slog"
	"math"
	"testing"
)

// Burst-then-silence: a fault burst must be flagged without being absorbed
// into the baseline, so that post-burst normal traffic is not flagged and a
// repeat burst still is. This is the property the te predictor's burst
// guard relies on when chaos injects BER/flap storms.
func TestDetectorBurstThenSilence(t *testing.T) {
	var buf bytes.Buffer
	d := NewDetector(slog.New(slog.NewJSONHandler(&buf, nil)))

	// Warm up on a noisy-but-healthy baseline (1e-9 ± small wiggle).
	for i := 0; i < 64; i++ {
		v := 1e-9 * (1 + 0.01*float64(i%5))
		if d.Observe(v) {
			t.Fatalf("warmup sample %d flagged", i)
		}
	}
	mean0, sd0 := d.Baseline()

	// Burst: three decades above baseline.
	for i := 0; i < 10; i++ {
		if !d.Observe(1e-6) {
			t.Fatalf("burst sample %d not flagged", i)
		}
	}
	mean1, sd1 := d.Baseline()
	if mean1 != mean0 || sd1 != sd0 {
		t.Fatalf("burst moved the baseline: %g/%g -> %g/%g", mean0, sd0, mean1, sd1)
	}

	// Silence: traffic back to normal must not be flagged.
	for i := 0; i < 32; i++ {
		if d.Observe(1e-9 * (1 + 0.01*float64(i%5))) {
			t.Fatalf("post-burst sample %d flagged", i)
		}
	}

	// A second burst is still caught — the detector did not learn that
	// faults are normal.
	if !d.Observe(1e-6) {
		t.Fatal("repeat burst not flagged")
	}
	recs := records(t, &buf)
	if len(recs) != 11 {
		t.Fatalf("%d records for 11 flagged samples", len(recs))
	}
	for _, r := range recs {
		if r["level"] != "WARN" {
			t.Fatalf("adaptive alert at level %v", r["level"])
		}
	}
}

// Before warmup completes, only the hard limit fires: a cold detector must
// not raise adaptive alerts off a near-empty baseline.
func TestDetectorBurstDuringWarmup(t *testing.T) {
	var buf bytes.Buffer
	d := NewDetector(slog.New(slog.NewJSONHandler(&buf, nil)))
	d.HardLimit = 2e-4 // the KP4 FEC threshold

	for i := 0; i < d.Warmup-1; i++ {
		if d.Observe(1e-9) {
			t.Fatalf("warmup sample %d flagged", i)
		}
	}
	if d.Observe(1e-6) {
		t.Fatal("pre-warmup burst below the hard limit was flagged")
	}
	if !d.Observe(3e-4) {
		t.Fatal("hard-limit violation not flagged during warmup")
	}
	if recs := records(t, &buf); len(recs) != 1 || recs[0]["level"] != "ERROR" {
		t.Fatalf("want exactly one Error record, got %v", recs)
	}
}

// A perfectly flat baseline has zero variance, so the sigma rule cannot
// fire; the hard limit is the only defense and must still work.
func TestDetectorZeroVarianceStream(t *testing.T) {
	d := NewDetector(nil)
	d.HardLimit = 2e-4

	for i := 0; i < 64; i++ {
		if d.Observe(1e-9) {
			t.Fatalf("flat sample %d flagged", i)
		}
	}
	if _, sd := d.Baseline(); sd != 0 {
		t.Fatalf("flat stream should have zero stddev, got %g", sd)
	}
	// Above baseline but below the hard limit: undetectable by sigma on a
	// zero-variance stream, by design (no division by zero, no panic).
	if d.Observe(1e-7) {
		t.Fatal("sub-limit sample flagged on zero-variance stream")
	}
	if !d.Observe(1e-3) {
		t.Fatal("hard-limit violation not flagged")
	}
}

// Alternating burst/silence cycles: each burst is flagged, each silent
// phase is clean, and the baseline stays near the healthy level
// throughout.
func TestDetectorRepeatedBurstSilenceCycles(t *testing.T) {
	d := NewDetector(nil)
	for i := 0; i < 64; i++ {
		d.Observe(1e-9 * (1 + 0.02*float64(i%7)))
	}
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 8; i++ {
			if !d.Observe(5e-7) {
				t.Fatalf("cycle %d burst sample %d not flagged", cycle, i)
			}
		}
		for i := 0; i < 16; i++ {
			if d.Observe(1e-9 * (1 + 0.02*float64(i%7))) {
				t.Fatalf("cycle %d silence sample %d flagged", cycle, i)
			}
		}
	}
	mean, _ := d.Baseline()
	if mean > 2e-9 || mean < 0.5e-9 || math.IsNaN(mean) {
		t.Fatalf("baseline drifted to %g after burst/silence cycles", mean)
	}
}
