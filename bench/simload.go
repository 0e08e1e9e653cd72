package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lightwave/internal/chaos"
	"lightwave/internal/dcn"
	"lightwave/internal/par"
	"lightwave/internal/sched"
	"lightwave/internal/superpod"
	"lightwave/internal/te"
	"lightwave/internal/telemetry"
)

// The simulator workloads time the deterministic evaluators through their
// public entry points on the configurations cmd/experiments runs. Their
// inputs are fixed — the seed argument does not reach them — so every
// pass must reproduce the report digest committed under expected/; the
// wall time is the only thing that may differ between two passes.

// stage is one evaluator call of a pass: the span name it is timed under
// and a function returning its report as text.
type stage struct {
	name string
	run  func() (string, error)
}

func jsonText(v any, err error) (string, error) {
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(v)
	return string(b), err
}

// flowStages is one sim_flow pass: the dcn, te and chaos experiments.
func flowStages() []stage {
	return []stage{
		{"dcn.compare", func() (string, error) {
			return jsonText(dcn.CompareTopologies(dcn.ReferenceExperiment()))
		}},
		{"te.evaluate", func() (string, error) {
			return jsonText(te.Evaluate(te.EvalConfig{
				Trace: te.TraceConfig{
					Blocks: 8, Epochs: 24, BaseBps: 1, NumServices: 8, ServiceMeanBps: 60,
					ServiceMinEpochs: 12, DiurnalAmplitude: 0.3, DiurnalPeriodEpochs: 24,
					BurstProb: 0.25, Seed: 42,
				},
				Uplinks: 14, TrunkBps: 50e9, LoadFraction: 0.9, EpochSeconds: 60, SimSeconds: 1,
				MeanFlowBytes: 2e9, CooldownEpochs: 2, Predictor: te.PredictorConfig{Warmup: 2}, Seed: 7,
			}))
		}},
		{"chaos.evaluate", func() (string, error) {
			rep, err := chaos.Evaluate(chaos.EvalConfig{
				Scenario: chaos.SingleOCSOutage(2, 70, 180, 360),
				Blocks:   6, Uplinks: 6, LoadFraction: 0.9, Seed: 7,
			})
			if err != nil {
				return "", err
			}
			return rep.Text(), nil
		}},
	}
}

// schedStages is one sim_sched pass: the live three-policy replay of the
// sched experiment at a quarter of its horizon, then the offline
// scheduler under each placement policy. The pass asserts the paper's
// ordering (§4.2.4): reconfigurable placement beats contiguous.
//
// The experiment's pod-loss event is left out: whether the lost pod ends
// up quarantined depends on how the reconciler's wall-clock backoff races
// the replay (the repo's own TestEvaluateDeterministicAcrossWorkers flakes
// on that flag), and a report that is not reproducible cannot be pinned by
// digest. Cube failures and repairs stay in.
func schedStages() []stage {
	return []stage{
		{"superpod.evaluate", func() (string, error) {
			rep, err := superpod.Evaluate(superpod.EvalConfig{
				Pods: 2, CubesPerPod: 64, HorizonSeconds: 3000, WarmupSeconds: 500,
				CubeMTBF: 200000, MeanRepairSeconds: 1800, Seed: 5,
			})
			if err != nil {
				return "", err
			}
			if r, c := rep.Policies[0].Stats.Utilization, rep.Policies[1].Stats.Utilization; r <= c {
				return "", fmt.Errorf("live replay: reconfigurable utilization %.4f not above contiguous %.4f", r, c)
			}
			return rep.Text(), nil
		}},
		{"sched.simulate", func() (string, error) {
			mix, cfg := sched.ProductionMix(), sched.ReferenceConfig()
			cfg.Duration = 20000
			migrations := 0
			var stats []sched.Stats
			for _, placer := range []sched.Placer{
				sched.Reconfigurable{}, sched.Contiguous{}, sched.ContiguousWithDefrag{Migrations: &migrations},
			} {
				st, err := sched.Simulate(sched.FullPod(), placer, mix, cfg)
				if err != nil {
					return "", err
				}
				stats = append(stats, st)
			}
			if stats[0].Utilization <= stats[1].Utilization {
				return "", fmt.Errorf("offline: reconfigurable utilization %.4f not above contiguous %.4f",
					stats[0].Utilization, stats[1].Utilization)
			}
			return jsonText(stats, nil)
		}},
	}
}

// simLoad is a simulator workload: passes over a fixed list of stages.
type simLoad struct {
	name   string
	stages []stage
	want   string // committed digest of one pass's reports
	reg    *telemetry.Registry

	tr *tracer
	ln *lane
}

func expectedPath(dir, workload string) string {
	return filepath.Join(dir, "expected", workload+".sha256")
}

func setupSim(name string, stages func() []stage) func(e *env, tr *tracer) (instance, error) {
	return func(e *env, tr *tracer) (instance, error) {
		w := &simLoad{name: name, stages: stages(), reg: telemetry.NewRegistry(), tr: tr}
		if tr != nil {
			w.ln = tr.newLane()
		}
		b, err := os.ReadFile(expectedPath(e.benchDir, name))
		if err != nil {
			return nil, fmt.Errorf("%w (write it with -update-expected)", err)
		}
		w.want = strings.TrimSpace(string(b))
		// The simulators report into package-level registries; point them
		// all at this instance's so the traced run can read their counts.
		par.SetRegistry(w.reg)
		dcn.SetRegistry(w.reg)
		te.SetRegistry(w.reg)
		chaos.SetRegistry(w.reg)
		sched.SetRegistry(w.reg)
		// Warm-up: one pass, so pools are filled and code is paged in.
		if _, err := w.pass(); err != nil {
			return nil, err
		}
		return w, nil
	}
}

// digest runs every stage once and hashes the reports.
func (w *simLoad) digest() (string, error) {
	var root uint64
	if w.tr != nil {
		root = w.tr.newIDs(1)
	}
	h := sha256.New()
	start := time.Now()
	for _, s := range w.stages {
		t0 := time.Now()
		text, err := s.run()
		if err != nil {
			return "", fmt.Errorf("%s: %w", s.name, err)
		}
		if w.tr != nil {
			w.ln.add(0, root, root, s.name, t0, time.Now())
		}
		fmt.Fprintf(h, "%s\n%s\n", s.name, text)
	}
	if w.tr != nil {
		w.ln.add(root, 0, root, "client.pass", start, time.Now())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (w *simLoad) pass() (cost, error) {
	return timed(func() error {
		got, err := w.digest()
		if err == nil && got != w.want {
			err = fmt.Errorf("report digest %s, expected %s", got, w.want)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		}
		return err
	})
}

func (w *simLoad) measure(seconds float64) phaseResult { return runPasses(seconds, w.pass) }

// verify has nothing left to do: every pass checks its own digest.
func (w *simLoad) verify() (int, []error) { return 0, nil }

func (w *simLoad) registry() *telemetry.Registry { return w.reg }

func (w *simLoad) close() error { return nil }
