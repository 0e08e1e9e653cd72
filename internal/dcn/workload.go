package dcn

import (
	"fmt"
	"math"

	"lightwave/internal/par"
	"lightwave/internal/sim"
)

// pairRate is one demanded (src, dst) block pair and its flow arrival rate
// (demand over mean flow size, in flows/s).
type pairRate struct {
	i, j int
	rate float64
}

// demandPairs extracts the demanded block pairs from the workload,
// validating the demand matrix as it goes: rows must match the topology,
// entries must be finite and non-negative, at least one pair must carry
// demand, and every demanded pair must have a usable path — otherwise its
// flows would be assigned a zero-capacity direct hop and never drain. The
// pairs are appended to pairs[:0].
func demandPairs(pairs []pairRate, t *Topology, w Workload) ([]pairRate, error) {
	n := t.Blocks
	pairs = pairs[:0]
	for i := 0; i < n; i++ {
		if len(w.Demand[i]) != n {
			return nil, fmt.Errorf("%w: demand row %d has %d entries, topology %d", ErrMismatch, i, len(w.Demand[i]), n)
		}
		for j := 0; j < n; j++ {
			d := w.Demand[i][j]
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				return nil, fmt.Errorf("%w: demand[%d][%d] = %g", ErrDegenerate, i, j, d)
			}
			if i != j && d > 0 {
				if !t.Routable(i, j) {
					return nil, fmt.Errorf("%w: demand on pair (%d,%d) with no direct trunk or two-hop path", ErrDegenerate, i, j)
				}
				pairs = append(pairs, pairRate{i: i, j: j, rate: d / w.MeanFlowBytes})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("%w: empty demand", ErrDegenerate)
	}
	return pairs, nil
}

// SkewedDemand generates the long-lived, skewed traffic matrix the DCN
// topology-engineering evaluation uses: a uniform background plus a few hot
// block pairs carrying a multiple of the background rate — the "increase in
// long-lived traffic demand between a particular set of ABs" of §2.1.
func SkewedDemand(blocks int, baseBps float64, hotPairs int, hotFactor float64, seed uint64) [][]float64 {
	rng := sim.NewRand(seed)
	d := make([][]float64, blocks)
	for i := range d {
		d[i] = make([]float64, blocks)
		for j := range d[i] {
			if i != j {
				d[i][j] = baseBps
			}
		}
	}
	for h := 0; h < hotPairs; h++ {
		i := rng.Intn(blocks)
		j := rng.Intn(blocks)
		for j == i {
			j = rng.Intn(blocks)
		}
		d[i][j] = baseBps * hotFactor
		d[j][i] = baseBps * hotFactor
	}
	return d
}

// UniformDemand generates an all-pairs-equal traffic matrix.
func UniformDemand(blocks int, bps float64) [][]float64 {
	d := make([][]float64, blocks)
	for i := range d {
		d[i] = make([]float64, blocks)
		for j := range d[i] {
			if i != j {
				d[i][j] = bps
			}
		}
	}
	return d
}

// TotalDemand sums the matrix.
func TotalDemand(d [][]float64) float64 {
	t := 0.0
	for i := range d {
		for j := range d[i] {
			t += d[i][j]
		}
	}
	return t
}

// Comparison holds the engineered-vs-uniform results of one experiment.
type Comparison struct {
	Uniform, Engineered SimResult
	// FCTImprovement is 1 − engineered/uniform mean FCT at moderate load
	// (positive is better; paper ≈0.10).
	FCTImprovement float64
	// ThroughputGain is engineered/uniform − 1 in delivered throughput
	// under saturating demand of the same shape (paper ≈0.30).
	ThroughputGain float64
	// UniformBps / EngineeredBps are the saturation throughputs.
	UniformBps, EngineeredBps float64
}

// scaleDemand returns demand scaled so its total equals frac of the
// fabric's total directed capacity.
func scaleDemand(demand [][]float64, blocks, uplinks int, trunkBps, frac float64) [][]float64 {
	capTotal := float64(blocks*uplinks) * trunkBps
	total := TotalDemand(demand)
	if total == 0 {
		return demand
	}
	s := frac * capTotal / total
	out := make([][]float64, len(demand))
	for i := range demand {
		out[i] = make([]float64, len(demand[i]))
		for j := range demand[i] {
			out[i][j] = demand[i][j] * s
		}
	}
	return out
}

// ReferenceExperiment returns the calibrated configuration of the
// engineered-vs-uniform comparison: 12 aggregation blocks of 33 uplinks,
// a strongly skewed long-lived matrix (12 hot pairs at 300× a thin uniform
// background), and long flows.
func ReferenceExperiment() (blocks, uplinks int, demand [][]float64, w Workload, cfg SimConfig) {
	blocks, uplinks = 12, 33
	demand = SkewedDemand(blocks, 0.5e9, 12, 300, 7)
	w = Workload{MeanFlowBytes: 20e9, Duration: 5}
	cfg = DefaultSimConfig()
	return
}

// The load fractions of the engineered-vs-uniform comparison: flow
// completion time is measured at fctLoad of the fabric's capacity,
// throughput at satLoad.
const (
	fctLoad = 0.7
	satLoad = 0.95
)

// CompareTopologies engineers a topology for the demand shape and compares
// it with a uniform mesh — the experiment behind the "10% improvement in
// flow completion time and 30% increase in TCP throughput" summary of §4.2.
// Flow completion time is measured with the flow-level simulator at 70% of
// fabric capacity; throughput with the fluid solver at saturating load
// (95%), where the uniform mesh pays the 2× transit tax on hot pairs.
func CompareTopologies(blocks, uplinks int, demand [][]float64, w Workload, cfg SimConfig) (Comparison, error) {
	var c Comparison
	uni, err := UniformMesh(blocks, uplinks)
	if err != nil {
		return c, err
	}
	eng, err := Engineer(blocks, uplinks, demand)
	if err != nil {
		return c, err
	}
	// The uniform and engineered halves are independent simulations; run
	// each pair concurrently on the worker pool (each event loop stays
	// sequential, and both halves keep their own seed, so the comparison
	// is identical at any worker count).
	w.Demand = scaleDemand(demand, blocks, uplinks, cfg.TrunkBps, fctLoad)
	tops := []*Topology{uni, eng}
	type simOut struct {
		res SimResult
		err error
	}
	fct := par.Sweep("dcn_compare_fct", tops, func(_ int, top *Topology) simOut {
		r, err := Simulate(top, w, cfg)
		return simOut{res: r, err: err}
	})
	for _, o := range fct {
		if o.err != nil {
			return c, o.err
		}
	}
	c.Uniform, c.Engineered = fct[0].res, fct[1].res
	if c.Uniform.MeanFCT > 0 {
		c.FCTImprovement = 1 - c.Engineered.MeanFCT/c.Uniform.MeanFCT
	}

	sat := scaleDemand(demand, blocks, uplinks, cfg.TrunkBps, satLoad)
	tps := par.Sweep("dcn_compare_sat", tops, func(_ int, top *Topology) float64 {
		return AchievedThroughput(top, sat, cfg.TrunkBps)
	})
	c.UniformBps, c.EngineeredBps = tps[0], tps[1]
	if c.UniformBps > 0 {
		c.ThroughputGain = c.EngineeredBps/c.UniformBps - 1
	}
	return c, nil
}
