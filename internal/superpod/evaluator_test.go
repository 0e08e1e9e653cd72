package superpod

import (
	"strings"
	"testing"

	"lightwave/internal/par"
	"lightwave/internal/sched"
)

// testConfig is a scaled-down stream that still exercises every event
// kind: saturating arrivals, cube failures with repairs, and a pod
// loss/restore window.
func testConfig() EvalConfig {
	return EvalConfig{
		Pods:        2,
		CubesPerPod: 8,
		Mix: sched.JobMix{
			Sizes:        []int{1, 2, 4},
			Weights:      []float64{0.5, 0.3, 0.2},
			MeanDuration: 300,
			ArrivalRate:  0.05,
		},
		HorizonSeconds:      3000,
		WarmupSeconds:       500,
		BackfillWindow:      16,
		CubeMTBF:            4000,
		MeanRepairSeconds:   600,
		PodLossAtSeconds:    1200,
		PodRestoreAtSeconds: 1800,
		Seed:                9,
	}
}

func TestEvaluateLive(t *testing.T) {
	rep, err := Evaluate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Policies) != 3 {
		t.Fatalf("%d policies", len(rep.Policies))
	}
	for _, p := range rep.Policies {
		if !p.AccountingOK {
			t.Errorf("policy %s: accounting broken: %+v", p.Policy, p.Stats)
		}
		if !p.Consistent {
			t.Errorf("policy %s: fabric diverged from scheduler", p.Policy)
		}
		if p.Stats.Started == 0 || p.Stats.Completed == 0 {
			t.Errorf("policy %s: no jobs ran: %+v", p.Policy, p.Stats)
		}
		if p.FailsApplied == 0 {
			t.Errorf("policy %s: no cube failures applied", p.Policy)
		}
		if !p.Quarantined {
			t.Errorf("policy %s: pod loss did not quarantine", p.Policy)
		}
	}
	reconf, contig := rep.Policies[0], rep.Policies[1]
	if reconf.Stats.Utilization <= contig.Stats.Utilization {
		t.Errorf("reconfigurable %.4f not above contiguous %.4f",
			reconf.Stats.Utilization, contig.Stats.Utilization)
	}
	if reconf.Stats.Swaps == 0 {
		t.Errorf("reconfigurable rode out failures without swaps: %+v", reconf.Stats)
	}
	if contig.Stats.Preempted == 0 {
		t.Errorf("contiguous saw no preemptions: %+v", contig.Stats)
	}
	if rep.UtilizationGap <= 0 {
		t.Errorf("utilization gap %.4f", rep.UtilizationGap)
	}
}

// TestEvaluateDeterministicAcrossWorkers is the live half of the issue's
// determinism requirement: the full report — three live control planes,
// real reconciler goroutines — must render byte-identically at 1, 4, and 8
// par workers.
func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.HorizonSeconds = 1500
	cfg.PodLossAtSeconds = 600
	cfg.PodRestoreAtSeconds = 900
	defer par.SetWorkers(par.SetWorkers(1))
	var ref string
	for _, workers := range []int{1, 4, 8} {
		par.SetWorkers(workers)
		rep, err := Evaluate(cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		text := rep.Text()
		if !strings.Contains(text, "policy reconfigurable:") {
			t.Fatalf("malformed report:\n%s", text)
		}
		if ref == "" {
			ref = text
		} else if text != ref {
			t.Fatalf("report at %d workers diverged:\n%s\n--- want ---\n%s", workers, text, ref)
		}
	}
}

// TestEvaluateRejectsInvalidMix: Evaluate used to hand the mix to the
// stream generator unchecked — a mix with more weights than sizes indexed
// past Sizes and panicked, and a zero arrival rate produced a report with
// no arrivals in it.
func TestEvaluateRejectsInvalidMix(t *testing.T) {
	for name, mutate := range map[string]func(*sched.JobMix){
		"more weights than sizes": func(m *sched.JobMix) { m.Weights = []float64{0, 0, 0, 1} },
		"zero arrival rate":       func(m *sched.JobMix) { m.ArrivalRate = 0 },
	} {
		cfg := testConfig()
		mutate(&cfg.Mix)
		if rep, err := Evaluate(cfg); err == nil {
			t.Errorf("%s: accepted, report:\n%s", name, rep.Text())
		}
	}
}

// BenchmarkEvaluate is one live replay at the configuration of the perf
// ledger's sim_sched stage (bench/simload.go): two full pods, a 3000 s
// horizon with 500 s of warm-up, cube failures at a 200 000 s MTBF with
// 1800 s repairs, seed 5. Compose admission (budget walk and pre-FEC
// BER) is ≈ 60 % of it, core.New ≈ 17 % and the OCS transaction ≈ 7 %;
// `make profile-sched` profiles it.
func BenchmarkEvaluate(b *testing.B) {
	cfg := EvalConfig{
		Pods: 2, CubesPerPod: 64, HorizonSeconds: 3000, WarmupSeconds: 500,
		CubeMTBF: 200000, MeanRepairSeconds: 1800, Seed: 5,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
