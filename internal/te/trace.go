package te

import (
	"fmt"
	"math"

	"lightwave/internal/dcn"
	"lightwave/internal/par"
	"lightwave/internal/sim"
)

// TraceConfig describes a synthetic inter-block load trace: a thin uniform
// background, long-lived services that turn up and down across the horizon
// (dcn.RandomServices-style churn), a diurnal swing, and short random
// bursts. Every epoch is a pure function of (Seed, epoch), drawn through
// sim.Substream, so traces are bit-identical at any worker count and can
// be generated epoch-by-epoch by a live daemon or in bulk by the
// evaluation harness.
type TraceConfig struct {
	Blocks, Epochs int
	// BaseBps is the always-on background demand between every pair.
	BaseBps float64
	// Services pins the churn workload; when nil, NumServices services
	// with mean rate ServiceMeanBps are generated from the seed.
	Services       []dcn.Service
	NumServices    int
	ServiceMeanBps float64
	// ServiceMinEpochs stretches each *generated* service to at least
	// this many epochs (clamped to the horizon) — the long-lived ML
	// training and storage services whose persistence is what makes
	// demand predictable at topology-engineering timescales (§2.1).
	ServiceMinEpochs int
	// DiurnalAmplitude in [0, 1) swings the whole matrix sinusoidally
	// with period DiurnalPeriodEpochs (default 24).
	DiurnalAmplitude    float64
	DiurnalPeriodEpochs int
	// BurstProb is the per-epoch probability of a hot-pair burst adding
	// burstFactor x ServiceMeanBps to one random pair.
	BurstProb float64
	Seed      uint64
}

// burstFactor sizes a trace burst in multiples of ServiceMeanBps (of
// BaseBps when the trace has no services).
const burstFactor = 4

func (c TraceConfig) withDefaults() TraceConfig {
	if c.DiurnalPeriodEpochs <= 0 {
		c.DiurnalPeriodEpochs = 24
	}
	return c
}

func (c TraceConfig) validate() error {
	if c.Blocks < 2 || c.Epochs < 1 {
		return fmt.Errorf("%w: trace needs >=2 blocks and >=1 epochs, got %d/%d",
			ErrConfig, c.Blocks, c.Epochs)
	}
	if c.BaseBps <= 0 {
		return fmt.Errorf("%w: base rate %g B/s", ErrConfig, c.BaseBps)
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("%w: diurnal amplitude %g outside [0,1)", ErrConfig, c.DiurnalAmplitude)
	}
	if c.BurstProb < 0 || c.BurstProb > 1 {
		return fmt.Errorf("%w: burst probability %g", ErrConfig, c.BurstProb)
	}
	return nil
}

// services returns the trace's service set: the pinned one, or a
// generated set on substream 0 of the seed, with lifetimes stretched to
// ServiceMinEpochs.
func (c TraceConfig) services() []dcn.Service {
	if c.Services != nil {
		return c.Services
	}
	svcs := dcn.RandomServices(c.NumServices, c.Blocks, c.Epochs, c.ServiceMeanBps,
		sim.SubstreamSeed(c.Seed, 0))
	for i := range svcs {
		s := &svcs[i]
		if s.End-s.Start < c.ServiceMinEpochs {
			s.End = s.Start + c.ServiceMinEpochs
			if s.End > c.Epochs {
				s.End = c.Epochs
				if s.Start > s.End-c.ServiceMinEpochs {
					s.Start = s.End - c.ServiceMinEpochs
				}
				if s.Start < 0 {
					s.Start = 0
				}
			}
		}
	}
	return svcs
}

// epochMatrix builds epoch e's offered-rate matrix. Bursts draw from
// substream e+1 of the seed, so epochs are independent and the matrix for
// a given (config, epoch) never depends on generation order.
func (c TraceConfig) epochMatrix(e int, svcs []dcn.Service) [][]float64 {
	d := dcn.UniformDemand(c.Blocks, c.BaseBps)
	for _, s := range svcs {
		if e >= s.Start && e < s.End {
			d[s.Src][s.Dst] += s.Bps
			d[s.Dst][s.Src] += s.Bps
		}
	}
	scale := 1.0
	if c.DiurnalAmplitude > 0 {
		scale += c.DiurnalAmplitude * math.Sin(2*math.Pi*float64(e)/float64(c.DiurnalPeriodEpochs))
	}
	if scale != 1 {
		for i := range d {
			for j := range d[i] {
				d[i][j] *= scale
			}
		}
	}
	if c.BurstProb > 0 {
		rng := sim.Substream(c.Seed, uint64(e)+1)
		if rng.Bernoulli(c.BurstProb) {
			i := rng.Intn(c.Blocks)
			j := rng.Intn(c.Blocks)
			for j == i {
				j = rng.Intn(c.Blocks)
			}
			burst := burstFactor * c.ServiceMeanBps
			if burst <= 0 {
				burst = burstFactor * c.BaseBps
			}
			d[i][j] += burst
			d[j][i] += burst
		}
	}
	return d
}

// Epoch returns epoch e's offered-rate matrix (bytes/s).
func (c TraceConfig) Epoch(e int) ([][]float64, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if e < 0 || e >= c.Epochs {
		return nil, fmt.Errorf("%w: epoch %d outside [0,%d)", ErrConfig, e, c.Epochs)
	}
	return c.epochMatrix(e, c.services()), nil
}

// Generate materializes the whole trace, fanning epoch construction out on
// the worker pool (each epoch writes only its own slot, and draws only
// from its own substream, so the trace is identical at any worker count).
func (c TraceConfig) Generate() ([][][]float64, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	svcs := c.services()
	out := make([][][]float64, c.Epochs)
	par.Map("te_trace", c.Epochs, func(e int) {
		out[e] = c.epochMatrix(e, svcs)
	})
	return out, nil
}
