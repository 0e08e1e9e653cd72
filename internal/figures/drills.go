package figures

import (
	"fmt"
	"io"
	"os"

	"lightwave/internal/chaos"
	"lightwave/internal/te"
)

// teExperiment replays a diurnal/bursty load trace through the flow
// simulator under three topology policies — static uniform mesh, per-epoch
// oracle, and the online TE loop — the §2.1/§4 claim that traffic-aware
// topology engineering recovers most of the oracle's gain while staging
// every reconfiguration above a capacity floor.
func teExperiment(w io.Writer) ([]Row, error) {
	cfg := te.EvalConfig{
		Trace: te.TraceConfig{
			Blocks: 8, Epochs: 24,
			BaseBps:             1,
			NumServices:         8,
			ServiceMeanBps:      60,
			ServiceMinEpochs:    12,
			DiurnalAmplitude:    0.3,
			DiurnalPeriodEpochs: 24,
			BurstProb:           0.25,
			Seed:                42,
		},
		Uplinks:        14,
		TrunkBps:       50e9,
		LoadFraction:   0.9,
		EpochSeconds:   60,
		SimSeconds:     1,
		MeanFlowBytes:  2e9,
		CooldownEpochs: 2,
		Predictor:      te.PredictorConfig{Warmup: 2},
		Seed:           7,
	}
	res, err := te.Evaluate(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "replayed %d epochs on %d blocks x %d uplinks (peak load %.0f%% of fabric capacity)\n",
		cfg.Trace.Epochs, cfg.Trace.Blocks, cfg.Uplinks, 100*cfg.LoadFraction)
	fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "policy", "mean Gbps", "effective Gbps", "mean FCT")
	for _, s := range []te.ScenarioResult{res.Static, res.Oracle, res.Online} {
		fmt.Fprintf(w, "%-8s %14.1f %14.1f %9.3fs\n",
			s.Name, s.MeanBps/1e9, s.EffectiveBps/1e9, s.MeanFCT)
	}
	fmt.Fprintf(w, "online gain over static: %+.1f%% (oracle bound %+.1f%%)\n",
		100*res.OnlineGain, 100*res.OracleGain)
	fmt.Fprintf(w, "loop: %d reconfigs / %d epochs, %d stages, %d trunks moved, pred error %.3f\n",
		res.Loop.Reconfigs, res.Loop.Epoch, res.Loop.Stages, res.Loop.TrunksMoved, res.Loop.LastPredictionError)
	fmt.Fprintf(w, "capacity floor held: min residual %.3f (floor 0.75), %.3g bps-seconds drained\n",
		res.MinResidualFraction, res.Loop.DrainedCapacityBpsSeconds)
	return []Row{
		near("online-gain-%", "online TE effective throughput gain over the static mesh", "not quantified", 100*res.OnlineGain, 4.7, 0.1),
		near("oracle-gain-%", "per-epoch oracle throughput gain over the static mesh", "not quantified", 100*res.OracleGain, 9.6, 0.1),
		within("min-residual-capacity", "lowest in-service capacity fraction of any reconfiguration stage", "above the drain floor", res.MinResidualFraction, 0.75, 1),
		near("reconfigs", "online loop reconfigurations over 24 epochs", "not reported", float64(res.Loop.Reconfigs), 2, 0),
	}, nil
}

// chaosExperiment replays the paper's headline resilience drill — a single
// OCS outage with field repair — against the live fleet reconciler and TE
// loop, measuring the §3.4 claim: losing one of N switches costs a bounded
// ~1/N slice of inter-block capacity, the control plane heals around it
// within a reconcile epoch, and no compute pod is disturbed. The replay is
// deterministic: the same seed produces a byte-identical report at any
// worker count.
func chaosExperiment(w io.Writer) ([]Row, error) {
	cfg := chaos.EvalConfig{
		Scenario:     chaos.SingleOCSOutage(2, 70, 180, 360),
		Blocks:       6,
		Uplinks:      6,
		LoadFraction: 0.9,
		Seed:         7,
	}
	rep, err := chaos.Evaluate(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "drill: OCS 2 fails at t=70s, field-repaired at t=250s (%d blocks x %d uplinks, %.0f%% load)\n",
		cfg.Blocks, cfg.Uplinks, 100*cfg.LoadFraction)
	fmt.Fprint(w, rep.Text())
	fmt.Fprintf(w, "bounded cost: worst epoch kept %.1f%% of fault-free goodput; capacity restored in %.0fs\n",
		100*rep.MinGoodputFraction, rep.CapacityMTTRSeconds)
	return []Row{
		near("min-goodput-fraction", "worst epoch's goodput over the fault-free fabric", "bounded loss (one switch of N)", rep.MinGoodputFraction, 0.7297, 0.0001),
		near("capacity-mttr-s", "time until goodput is restored", "within a reconcile epoch", rep.CapacityMTTRSeconds, 60, 0),
		near("blackout-epochs", "epochs in which a demanded block pair has no path", "none", float64(rep.BlackoutEpochs), 0, 0),
		match("quarantine-budget-ok", "every quarantine fired at exactly the lab's retry budget", "true", fmt.Sprint(rep.QuarantineBudgetOK)),
	}, nil
}

// crashRestartExperiment runs the durable-state drill: a journaled fleet
// manager churns through seeded intent mutations and pod faults, the
// process dies mid-stream with no shutdown snapshot and a record torn
// mid-write, and a fresh manager recovers from the WAL alone. The claim:
// the recovered intent store is byte-identical to the pre-crash one, and
// reconciliation converges every recovered slice onto fresh backends —
// recovery restores intent, reconciliation restores reality.
func crashRestartExperiment(w io.Writer) ([]Row, error) {
	dir, err := os.MkdirTemp("", "lw-crashrestart-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep, err := chaos.EvaluateCrashRestart(chaos.CrashRestartConfig{
		Dir:        dir,
		ChurnSteps: 60,
		Seed:       13,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "drill: kill -9 mid-churn after %d mutations, recover from WAL (snapshot + tail + torn record)\n",
		rep.Mutations)
	fmt.Fprint(w, rep.Text())
	fmt.Fprintf(w, "reconverged %d slices\n", rep.DesiredSlices)
	return nil, nil
}
