package chaos

import (
	"math"
	"strings"
	"testing"

	"lightwave/internal/dcn"
	"lightwave/internal/par"
)

// outageCfg is the shared single-OCS-outage replay: the switch dies in
// epoch 1 and is field-repaired in epoch 4 of a 6-epoch horizon. High
// load makes the capacity dip visible in delivered goodput.
func outageCfg() EvalConfig {
	return EvalConfig{
		Scenario:     SingleOCSOutage(2, 70, 180, 360),
		Blocks:       6,
		Uplinks:      6,
		LoadFraction: 0.9,
		Seed:         7,
	}
}

func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	texts := make([]string, 0, 3)
	for _, workers := range []int{1, 4, 8} {
		prev := par.SetWorkers(workers)
		rep, err := Evaluate(outageCfg())
		par.SetWorkers(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		texts = append(texts, rep.Text())
	}
	if texts[0] != texts[1] || texts[1] != texts[2] {
		t.Fatalf("reports differ across worker counts:\n-- 1 --\n%s\n-- 4 --\n%s\n-- 8 --\n%s",
			texts[0], texts[1], texts[2])
	}
}

func TestSingleOCSOutageBoundedCapacityCost(t *testing.T) {
	rep, err := Evaluate(outageCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 6 || rep.EventsApplied != 2 {
		t.Fatalf("epochs/events = %d/%d, want 6/2", rep.Epochs, rep.EventsApplied)
	}
	if rep.BlackoutEpochs != 0 {
		t.Fatalf("%d blackout epochs: a single OCS loss must never partition the fabric", rep.BlackoutEpochs)
	}
	// The capacity cost is bounded: one switch is ~1/8 of this fabric, and
	// transit routing absorbs part of the loss.
	if rep.MinGoodputFraction < 0.5 {
		t.Fatalf("min goodput fraction %.4f: dip deeper than the failed switch's capacity share", rep.MinGoodputFraction)
	}
	if rep.MinGoodputFraction >= 1 {
		t.Fatalf("min goodput fraction %.4f: outage left no measurable dip", rep.MinGoodputFraction)
	}
	// The control plane heals around the outage within the replay: the
	// dip must close (MTTR measured, not -1) and within a few epochs.
	if rep.CapacityMTTRSeconds < 0 || rep.CapacityMTTRSeconds > 3*60 {
		t.Fatalf("capacity MTTR %.0fs, want recovered within 3 epochs", rep.CapacityMTTRSeconds)
	}
	// A fabric fault must not touch compute pods.
	for _, p := range rep.Pods {
		if p.Quarantines != 0 || p.ReconcileErrors != 0 {
			t.Errorf("pod %s saw %d errors / %d quarantines from a fabric fault",
				p.Pod, p.ReconcileErrors, p.Quarantines)
		}
	}
	if !rep.QuarantineBudgetOK {
		t.Error("quarantine budget flagged with no quarantines")
	}
}

func TestQuarantineDrillBudgetAndMTTR(t *testing.T) {
	cfg := EvalConfig{
		Scenario: Scenario{Name: "quarantine-drill-pod1", HorizonSeconds: 300, Events: []Event{
			{At: 30, Kind: KindPodLoss, Pod: "pod1"},
			{At: 150, Kind: KindPodRestore, Pod: "pod1"},
		}},
		Blocks: 4, Uplinks: 4,
		Seed: 11,
	}
	rep, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var drilled *PodOutcome
	for i := range rep.Pods {
		if rep.Pods[i].Pod == "pod1" {
			drilled = &rep.Pods[i]
		} else if rep.Pods[i].Quarantines != 0 || rep.Pods[i].ReconcileErrors != 0 {
			t.Errorf("bystander %s saw %d errors / %d quarantines",
				rep.Pods[i].Pod, rep.Pods[i].ReconcileErrors, rep.Pods[i].Quarantines)
		}
	}
	if drilled == nil {
		t.Fatal("pod1 missing from report")
	}
	// Quarantine fires only after the configured failure budget: exactly
	// labQuarantineAfter errors, one quarantine, one recovery.
	if drilled.ReconcileErrors != labQuarantineAfter {
		t.Errorf("reconcile errors = %d, want %d", drilled.ReconcileErrors, labQuarantineAfter)
	}
	if drilled.Quarantines != 1 || drilled.Recoveries != 1 {
		t.Errorf("quarantines/recoveries = %d/%d, want 1/1", drilled.Quarantines, drilled.Recoveries)
	}
	if !drilled.BudgetRespected || !rep.QuarantineBudgetOK {
		t.Error("quarantine fired off-budget")
	}
	if drilled.MTTRSeconds != 120 {
		t.Errorf("pod MTTR = %.0fs, want the scripted 120s", drilled.MTTRSeconds)
	}
	// A pure control-plane fault leaves the data plane whole.
	if rep.MinGoodputFraction < 1 {
		t.Errorf("min goodput fraction %.4f, want 1 (backend faults cost no capacity)", rep.MinGoodputFraction)
	}
}

// TestEvaluateFullScenarioAllKinds replays every fault kind in one
// composed scenario — the -race deadlock canary: each injection path
// crosses injector, fleet and te locks, and every settle must terminate.
func TestEvaluateFullScenarioAllKinds(t *testing.T) {
	s := SingleOCSOutage(1, 70, 120, 480)
	s.Name = "all-kinds"
	s.Events = append(s.Events,
		Event{At: 100, Kind: KindPodLoss, Pod: "pod0"},
		Event{At: 190, Kind: KindPodRestore, Pod: "pod0"},
		Event{At: 150, Kind: KindCircuitFlap, Trunk: [2]int{0, 1}, DurationSeconds: 30},
		Event{At: 170, Kind: KindCircuitFlap, Trunk: [2]int{2, 3}, DurationSeconds: 30},
		Event{At: 200, Kind: KindSlowDrain, Pod: "pod2", OCS: 5, DurationSeconds: 80},
		Event{At: 260, Kind: KindStuckDrain, Pod: "pod3", OCS: 6},
		Event{At: 310, Kind: KindBERDegrade, Trunk: [2]int{1, 3}, BER: 5e-4, DurationSeconds: 40},
		Event{At: 330, Kind: KindBERDegrade, Trunk: [2]int{0, 2}, BER: 1e-6, DurationSeconds: 40},
	)
	rep, err := Evaluate(EvalConfig{Scenario: s, Blocks: 6, Uplinks: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventsApplied < 10 {
		t.Fatalf("only %d actions applied", rep.EventsApplied)
	}
	if !rep.QuarantineBudgetOK {
		t.Error("quarantine budget violated in composed scenario")
	}
	if !strings.Contains(rep.Text(), "pod pod3: ") {
		t.Error("report missing per-pod lines")
	}
}

// TestRandomScenarioReplays replays a schedule drawn from the fault-rate
// table (seed 19, 300 s horizon, 6 blocks, 8 OCSes, 4 pods, 12 events at
// 50000x acceleration), kept as a literal since the generator left the
// package: a burst of flaps, a BER excursion and one OCS outage/restore.
func TestRandomScenarioReplays(t *testing.T) {
	s := Scenario{Name: "random", HorizonSeconds: 300, Events: []Event{
		{At: 0.8358403361438603, Kind: KindCircuitFlap, Trunk: [2]int{0, 5}, DurationSeconds: 179.84719695911102},
		{At: 1.4450114011055046, Kind: KindBERDegrade, Trunk: [2]int{0, 3}, BER: 1.5686180412329853e-05, DurationSeconds: 51.234527869059164},
		{At: 2.7455953800134223, Kind: KindOCSOutage, OCS: 3},
		{At: 3.3215953800134224, Kind: KindOCSRestore, OCS: 3},
		{At: 8.729705604851192, Kind: KindCircuitFlap, Trunk: [2]int{0, 4}, DurationSeconds: 66.50439856066598},
		{At: 9.279757469646436, Kind: KindCircuitFlap, Trunk: [2]int{2, 3}, DurationSeconds: 138.11588052548362},
		{At: 9.433579476265182, Kind: KindCircuitFlap, Trunk: [2]int{1, 2}, DurationSeconds: 30.538875310181492},
		{At: 10.011882164130478, Kind: KindCircuitFlap, Trunk: [2]int{0, 1}, DurationSeconds: 50.743829578796614},
		{At: 13.704019466453754, Kind: KindCircuitFlap, Trunk: [2]int{0, 3}, DurationSeconds: 303.163908545937},
		{At: 14.05327948281238, Kind: KindCircuitFlap, Trunk: [2]int{0, 2}, DurationSeconds: 184.76577318631433},
		{At: 16.801884876860555, Kind: KindCircuitFlap, Trunk: [2]int{2, 3}, DurationSeconds: 39.39199821469671},
		{At: 22.069183698989594, Kind: KindCircuitFlap, Trunk: [2]int{0, 4}, DurationSeconds: 23.78558170721714},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(EvalConfig{Scenario: s, Blocks: 6, Uplinks: 6, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 5 {
		t.Fatalf("epochs = %d, want 5", rep.Epochs)
	}
	if !rep.QuarantineBudgetOK {
		t.Error("quarantine budget violated in random scenario")
	}
}

func TestCapacityMTTRSeries(t *testing.T) {
	cases := []struct {
		fracs []float64
		want  float64
	}{
		{[]float64{1, 1, 1}, 0},
		{[]float64{1, 0.8, 1, 1}, 60},
		{[]float64{1, 0.8, 0.7, 1}, 120},
		{[]float64{1, 0.8, 0.9}, -1},
		{[]float64{0.5, 1}, 60},
	}
	for i, c := range cases {
		if got := capacityMTTR(c.fracs, 0.99, 60); got != c.want {
			t.Errorf("case %d: mttr = %g, want %g", i, got, c.want)
		}
	}
}

// TestLoadFractionSetByReplayedEpochs: "the peak epoch offers
// LoadFraction" must be a statement about an epoch the replay simulates.
// The harness used to scan int(H/E)+1 epochs for the peak while the walk
// replays ceil(H/E); with this seed a service turns up in epoch 6 of a
// 360 s horizon — the first epoch the walk never reaches — so the scale
// was set by traffic nobody simulated and the busiest replayed epoch
// offered well under the configured fraction.
func TestLoadFractionSetByReplayedEpochs(t *testing.T) {
	cfg := EvalConfig{Blocks: 4, Uplinks: 4, Seed: 68101}.withDefaults()
	const epochs = 6

	// The seed's precondition, so the test cannot rot into a tautology.
	tr := evalTrace(cfg)
	busiest, peak := -1, 0.0
	for e := 0; e <= epochs; e++ {
		m, err := tr.Epoch(e)
		if err != nil {
			t.Fatal(err)
		}
		if d := dcn.TotalDemand(m); d > peak {
			busiest, peak = e, d
		}
	}
	if busiest != epochs {
		t.Fatalf("trace peaks at epoch %d, want the never-replayed epoch %d", busiest, epochs)
	}

	h, err := newHarness(cfg, epochs)
	if err != nil {
		t.Fatal(err)
	}
	defer h.lab.Close()
	if len(h.demand) != epochs {
		t.Fatalf("harness holds %d epochs of demand, want %d", len(h.demand), epochs)
	}
	offered := 0.0
	for _, m := range h.demand {
		offered = math.Max(offered, dcn.TotalDemand(m))
	}
	want := cfg.LoadFraction * float64(cfg.Blocks*cfg.Uplinks) * trunkBps
	if math.Abs(offered-want) > 1e-9*want {
		t.Errorf("busiest replayed epoch offers %g B/s, want LoadFraction of capacity = %g", offered, want)
	}
}
