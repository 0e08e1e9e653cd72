package te

import (
	"errors"
	"fmt"

	"lightwave/internal/dcn"
	"lightwave/internal/par"
)

// EvalConfig parameterizes the replay experiment comparing three
// topology policies on one load trace:
//
//   - static: the uniform mesh, never reconfigured (demand-oblivious);
//   - oracle: each epoch's topology engineered on that epoch's *true*
//     demand — the unreachable upper bound (perfect prediction, free
//     reconfiguration);
//   - online: the TE loop's trajectory — each epoch runs on the topology
//     the loop had engineered from *past* observations, and epochs after
//     a reconfiguration pay its drained-capacity bill.
type EvalConfig struct {
	Trace   TraceConfig
	Uplinks int
	// TrunkBps is the per-trunk, per-direction rate (default 50e9, the
	// 400G reference).
	TrunkBps float64
	// LoadFraction scales the trace so its *peak* epoch offers this
	// fraction of fabric capacity (default 0.7). The same scale applies
	// to all three scenarios.
	LoadFraction float64
	// EpochSeconds is the loop's collection epoch (default 60).
	EpochSeconds float64
	// SimSeconds is the flow-simulated horizon per epoch (default 2;
	// throughput is a rate, so the horizon need not match the epoch).
	SimSeconds float64
	// MeanFlowBytes is the flow-size mean (default 1e9).
	MeanFlowBytes float64
	Predictor     PredictorConfig
	// CooldownEpochs is the loop's reconfiguration cooldown (default 3).
	CooldownEpochs int
	// Seed drives the flow arrival processes. Each epoch's three
	// scenario sims share one substream, so arrival patterns are
	// identical across scenarios and only the topology differs.
	Seed uint64
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.TrunkBps <= 0 {
		c.TrunkBps = 50e9
	}
	if c.LoadFraction <= 0 {
		c.LoadFraction = 0.7
	}
	if c.EpochSeconds <= 0 {
		c.EpochSeconds = 60
	}
	if c.SimSeconds <= 0 {
		c.SimSeconds = 2
	}
	if c.MeanFlowBytes <= 0 {
		c.MeanFlowBytes = 1e9
	}
	return c
}

// ScenarioResult aggregates one policy's replay.
type ScenarioResult struct {
	Name string
	// MeanBps is the mean delivered throughput across epochs.
	MeanBps float64
	// EffectiveBps subtracts the reconfiguration drain bill (equals
	// MeanBps for static and oracle, which reconfigure for free).
	EffectiveBps float64
	// MeanFCT is the mean flow completion time across epochs, seconds.
	MeanFCT float64
	// PerEpochBps is the delivered throughput of each epoch.
	PerEpochBps []float64
}

// EvalResult is the full experiment outcome.
type EvalResult struct {
	Static, Oracle, Online ScenarioResult
	// OnlineGain and OracleGain are effective-throughput gains over the
	// static mesh (target/static − 1).
	OnlineGain, OracleGain float64
	// Loop is the final state of the online loop.
	Loop Status
	// MinResidualFraction is the lowest in-service capacity fraction any
	// reconfiguration stage reached (1 if the loop never reconfigured) —
	// the experiment's witness that the capacity floor held.
	MinResidualFraction float64
}

// Evaluate replays the trace. Phase A walks the online loop sequentially
// (each Advance consumes the epoch it observes, so the trajectory is
// inherently ordered); phase B fans all 3×Epochs flow simulations out on
// the worker pool, results keyed by index — the whole experiment is
// bit-identical at any worker count.
func Evaluate(cfg EvalConfig) (*EvalResult, error) {
	cfg = cfg.withDefaults()
	trace, err := cfg.Trace.Generate()
	if err != nil {
		return nil, err
	}
	n, epochs := cfg.Trace.Blocks, cfg.Trace.Epochs
	if cfg.Uplinks < n-1 {
		return nil, fmt.Errorf("%w: %d uplinks for %d blocks", ErrConfig, cfg.Uplinks, n)
	}

	// Normalize the trace so its peak epoch offers LoadFraction of the
	// fabric's total directed capacity.
	if err := NormalizePeak(trace, cfg.LoadFraction*float64(n*cfg.Uplinks)*cfg.TrunkBps); err != nil {
		return nil, err
	}

	// Phase A: walk the online loop. onlineTop[e] is the topology live
	// while epoch e's traffic flows (decided from epochs < e); the plan
	// produced by consuming epoch e reconfigures the fabric at the e/e+1
	// boundary, so its drain bill lands on epoch e+1.
	loop, err := NewLoop(Config{
		Blocks: n, Uplinks: cfg.Uplinks, TrunkBps: cfg.TrunkBps,
		EpochSeconds:   cfg.EpochSeconds,
		Predictor:      cfg.Predictor,
		CooldownEpochs: cfg.CooldownEpochs,
	})
	if err != nil {
		return nil, err
	}
	static, err := dcn.UniformMesh(n, cfg.Uplinks)
	if err != nil {
		return nil, err
	}
	staticTop := make([]*dcn.Topology, epochs)
	onlineTop := make([]*dcn.Topology, epochs)
	drainBps := make([]float64, epochs) // throughput debit per epoch
	for e := 0; e < epochs; e++ {
		staticTop[e], onlineTop[e] = static, loop.Current()
		plan, err := loop.Advance(trace[e])
		if err != nil {
			return nil, err
		}
		if plan.Reconfigure && e+1 < epochs {
			drainBps[e+1] += plan.DrainedCapacityBpsSeconds / cfg.EpochSeconds
		}
	}

	// Oracle topologies are independent per epoch; engineer them on the
	// pool.
	oracleTop := make([]*dcn.Topology, epochs)
	oracleErr := make([]error, epochs)
	par.Map("te_eval_oracle", epochs, func(e int) {
		oracleTop[e], oracleErr[e] = dcn.Engineer(n, cfg.Uplinks, trace[e])
	})
	if err := errors.Join(oracleErr...); err != nil {
		return nil, err
	}

	// Phase B: 3 scenarios × epochs flow simulations, every scenario of
	// an epoch on the same arrivals so only the topology differs.
	outs := ReplayFlows([][]*dcn.Topology{staticTop, oracleTop, onlineTop}, trace,
		dcn.Workload{MeanFlowBytes: cfg.MeanFlowBytes, Duration: cfg.SimSeconds},
		dcn.SimConfig{TrunkBps: cfg.TrunkBps, Seed: cfg.Seed})

	res := &EvalResult{Loop: loop.Status()}
	res.MinResidualFraction = res.Loop.MinResidualFraction // the loop keeps the same minimum
	res.Static.Name, res.Oracle.Name, res.Online.Name = "static", "oracle", "online"
	for s, sr := range []*ScenarioResult{&res.Static, &res.Oracle, &res.Online} {
		sr.PerEpochBps = make([]float64, epochs)
		var fct float64
		for e := 0; e < epochs; e++ {
			o := outs[s][e]
			if o.Err != nil {
				return nil, fmt.Errorf("te: %s epoch %d: %w", sr.Name, e, o.Err)
			}
			sr.PerEpochBps[e] = o.Res.ThroughputBps
			sr.MeanBps += o.Res.ThroughputBps
			fct += o.Res.MeanFCT
			eff := o.Res.ThroughputBps
			if s == 2 {
				eff -= drainBps[e]
				if eff < 0 {
					eff = 0
				}
			}
			sr.EffectiveBps += eff
		}
		sr.MeanBps /= float64(epochs)
		sr.EffectiveBps /= float64(epochs)
		sr.MeanFCT = fct / float64(epochs)
	}
	if res.Static.EffectiveBps > 0 {
		res.OnlineGain = res.Online.EffectiveBps/res.Static.EffectiveBps - 1
		res.OracleGain = res.Oracle.EffectiveBps/res.Static.EffectiveBps - 1
	}
	return res, nil
}
