package te

import (
	"fmt"

	"lightwave/internal/dcn"
	"lightwave/internal/par"
	"lightwave/internal/sim"
)

// maxTransit is how many candidate transit blocks a replayed flow examines.
const maxTransit = 4

// NormalizePeak scales a per-epoch demand series in place so its peak
// epoch offers peakBps in total — how a replay pins "load fraction L" to
// the busiest epoch it simulates. Pass exactly the epochs to be replayed:
// a peak set by an epoch nobody simulates says nothing about the replay.
func NormalizePeak(series [][][]float64, peakBps float64) error {
	peak := 0.0
	for _, m := range series {
		if t := dcn.TotalDemand(m); t > peak {
			peak = t
		}
	}
	if peak <= 0 {
		return fmt.Errorf("%w: trace offers no demand", ErrConfig)
	}
	scale := peakBps / peak
	for _, m := range series {
		for i := range m {
			for j := range m[i] {
				m[i][j] *= scale
			}
		}
	}
	return nil
}

// EpochSim is one cell of ReplayFlows: one epoch's demand simulated on one
// topology, or the error that stopped it. Whether dcn.ErrDegenerate (a
// demanded pair with no path) is a failure or an outcome is the caller's
// call, made on Err.
type EpochSim struct {
	Res dcn.SimResult
	Err error
}

// ReplayFlows flow-simulates every epoch of demand on every row of
// topologies: cell [r][e] is rows[r][e] carrying demand[e] for w.Duration
// seconds of w.MeanFlowBytes flows. sc gives the trunk rate and the base
// seed; epoch e of every row draws arrivals from substream e of it, so
// within an epoch only the topology differs. A cell whose topology equals
// an earlier row's at the same epoch would repeat that cell's simulation
// exactly — same demand, same seed — so it copies the result instead. The
// distinct cells fan out on the worker pool keyed by index — bit-identical
// at any worker count.
func ReplayFlows(rows [][]*dcn.Topology, demand [][][]float64, w dcn.Workload, sc dcn.SimConfig) [][]EpochSim {
	epochs := len(demand)
	sc.MaxTransit = maxTransit
	// same[i] is the first cell of epoch i%epochs that Simulate sees as
	// cell i's fabric (the same port budget and trunk matrix); cells lists
	// those that are their own.
	same := make([]int, len(rows)*epochs)
	var cells []int
	for i := range same {
		r, e := i/epochs, i%epochs
		same[i] = i
		for q := 0; q < r; q++ {
			if a, b := rows[q][e], rows[r][e]; a.UplinksPerBlock == b.UplinksPerBlock && a.SameTrunks(b) {
				same[i] = q*epochs + e
				break
			}
		}
		if same[i] == i {
			cells = append(cells, i)
		}
	}
	sims := par.Sweep("te_flow_replay", cells, func(_ int, i int) EpochSim {
		r, e := i/epochs, i%epochs
		we, se := w, sc
		we.Demand = demand[e]
		se.Seed = sim.SubstreamSeed(sc.Seed, uint64(e))
		res, err := dcn.Simulate(rows[r][e], we, se)
		return EpochSim{res, err}
	})
	flat := make([]EpochSim, len(same))
	for k, i := range cells {
		flat[i] = sims[k]
	}
	for i, j := range same {
		flat[i] = flat[j]
	}
	out := make([][]EpochSim, len(rows))
	for r := range out {
		out[r] = flat[r*epochs : (r+1)*epochs]
	}
	return out
}
