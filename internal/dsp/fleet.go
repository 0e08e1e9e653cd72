package dsp

import "lightwave/internal/par"

// Fleet-wide BER sampling (Fig 13): every receiving port of a pod runs
// with its own residual link margin (design margin minus end-of-life
// allocations actually spent) and its own MPI level; the per-lane BER
// distribution must sit well under the KP4 threshold. The sampler is the
// fleet-telemetry counterpart of the single-lane models in this package
// and fans out across the worker pool deterministically.

// The Fig 13 fleet: residual link margin is Gaussian across ports,
// clipped at marginFloorDB (repair thresholds keep links above it), and
// each port draws its own Gaussian MPI level.
const (
	marginMeanDB  = 1.55
	marginSigmaDB = 0.12
	marginFloorDB = 1.3
	mpiMeanDB     = -38
	mpiSigmaDB    = 2
)

// FleetBERConfig parameterizes a fleet sample.
type FleetBERConfig struct {
	// Ports is the number of receiving ports sampled (a 64-cube pod has
	// 64×96 = 6144).
	Ports int
	// SensitivityDBm is the receiver sensitivity at the FEC threshold;
	// per-port received power is SensitivityDBm + margin.
	SensitivityDBm float64
	// OIM enables interference mitigation at every receiver (the
	// production DSP always runs it).
	OIM bool
	// Seed fixes the fleet draw; a given seed yields the same fleet at any
	// worker count.
	Seed uint64
}

// DefaultFleetBERConfig returns the Fig 13 configuration: 6144 ports at
// ~1.55 dB residual margin and −38 dB mean MPI.
func DefaultFleetBERConfig() FleetBERConfig {
	return FleetBERConfig{
		Ports: 6144,
		OIM:   true,
		Seed:  1313,
	}
}

// FleetBERResult is the sampled fleet distribution.
type FleetBERResult struct {
	// BERs holds the per-port pre-FEC BER in port order.
	BERs []float64
	// Worst is the maximum BER across the fleet.
	Worst float64
}

// OverThreshold counts ports whose BER exceeds thr.
func (r FleetBERResult) OverThreshold(thr float64) int {
	n := 0
	for _, b := range r.BERs {
		if b > thr {
			n++
		}
	}
	return n
}

// FleetBER samples the per-port BER of the whole fleet, parallelized over
// port shards with one RNG substream per shard.
func (rx Receiver) FleetBER(cfg FleetBERConfig) FleetBERResult {
	if cfg.Ports <= 0 {
		cfg.Ports = 6144
	}
	res := FleetBERResult{BERs: make([]float64, cfg.Ports)}
	pr := rx.Prepare()
	worsts := par.MonteCarlo("dsp_fleet_ber", cfg.Ports, cfg.Seed, func(sh par.Shard) float64 {
		worst := 0.0
		for port := sh.Start; port < sh.End; port++ {
			margin := marginMeanDB + marginSigmaDB*sh.Rng.NormFloat64()
			if margin < marginFloorDB {
				margin = marginFloorDB
			}
			mpi := mpiMeanDB + mpiSigmaDB*sh.Rng.NormFloat64()
			ber := pr.BER(cfg.SensitivityDBm+margin, MPICondition{MPIDB: mpi, OIM: cfg.OIM})
			res.BERs[port] = ber
			if ber > worst {
				worst = ber
			}
		}
		return worst
	})
	for _, w := range worsts {
		if w > res.Worst {
			res.Worst = w
		}
	}
	return res
}
