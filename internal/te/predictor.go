package te

import (
	"fmt"

	"lightwave/internal/telemetry"
)

// The predictor's smoothing and burst constants.
const (
	// predictAlpha is the EWMA weight for new samples. Higher tracks
	// shifts faster; lower smooths noise harder.
	predictAlpha = 0.3
	// peakDecay multiplies the held per-pair peak each epoch, so a burst
	// keeps the prediction hedged for a few epochs after it subsides
	// instead of forever.
	peakDecay = 0.85
	// zeroVarBurstFactor is the relative spike guard used when a pair's
	// EWMA variance is exactly zero and the detector's sigma test cannot
	// fire: a sample above this multiple of the baseline counts as a
	// burst.
	zeroVarBurstFactor = 2
)

// PredictorConfig parameterizes the demand predictor.
type PredictorConfig struct {
	// Warmup is the number of epochs before adaptive burst detection
	// fires (default 8).
	Warmup int
}

func (c PredictorConfig) withDefaults() PredictorConfig {
	if c.Warmup <= 0 {
		c.Warmup = 8
	}
	return c
}

// Predictor turns the collector's per-epoch matrices into the demand
// matrix handed to the topology engineer. Each directed pair carries a
// telemetry.Detector (the EWMA+variance machinery used for BER and
// insertion-loss monitoring): its baseline is the smoothed demand, and a
// sample the detector flags as a burst updates only the peak-hold — so a
// transient burst hedges the prediction upward without teaching the
// baseline that bursts are normal, exactly the detector's fault-handling
// contract. The prediction is max(EWMA baseline, decayed peak).
type Predictor struct {
	blocks int
	cfg    PredictorConfig
	det    []*telemetry.Detector
	peak   []float64
	last   []float64 // previous Predict output, for error tracking
	primed bool      // last is valid
	epochs int
}

// NewPredictor returns a predictor over blocks^2 directed pairs.
func NewPredictor(blocks int, cfg PredictorConfig) (*Predictor, error) {
	if blocks < 2 {
		return nil, fmt.Errorf("%w: %d blocks", ErrConfig, blocks)
	}
	cfg = cfg.withDefaults()
	p := &Predictor{
		blocks: blocks,
		cfg:    cfg,
		det:    make([]*telemetry.Detector, blocks*blocks),
		peak:   make([]float64, blocks*blocks),
		last:   make([]float64, blocks*blocks),
	}
	for i := range p.det {
		d := telemetry.NewDetector(nil)
		d.Alpha = predictAlpha // bursts keep the detector's 4σ threshold
		d.Warmup = cfg.Warmup
		p.det[i] = d
	}
	return p, nil
}

// UpdateStats reports one Update call's outcome.
type UpdateStats struct {
	// Bursts is the number of directed pairs whose sample was flagged
	// anomalous this epoch.
	Bursts int
	// Error is the aggregate relative prediction error of the *previous*
	// prediction against this epoch's observation:
	// sum|pred-obs| / sum obs. Negative until two epochs have been fed.
	Error float64
}

// Update feeds one epoch's observed rate matrix (bytes/s).
func (p *Predictor) Update(observed [][]float64) (UpdateStats, error) {
	n := p.blocks
	st := UpdateStats{Error: -1}
	if len(observed) != n {
		return st, fmt.Errorf("%w: %d rows for %d blocks", ErrMatrix, len(observed), n)
	}
	var absErr, obsSum float64
	for i := 0; i < n; i++ {
		if len(observed[i]) != n {
			return st, fmt.Errorf("%w: row %d has %d entries", ErrMatrix, i, len(observed[i]))
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := observed[i][j]
			k := i*n + j
			if p.primed {
				d := p.last[k] - v
				if d < 0 {
					d = -d
				}
				absErr += d
				obsSum += v
			}
			// The detector's sigma test is blind when the baseline
			// variance is exactly zero (a perfectly steady pair), so a
			// relative guard classifies those spikes; bursts it catches
			// skip Observe, keeping the baseline unpoisoned exactly as
			// the detector itself would.
			mean, sd := p.det[k].Baseline()
			if p.epochs >= p.cfg.Warmup && sd == 0 && mean > 0 && v > mean*zeroVarBurstFactor {
				st.Bursts++
			} else if p.det[k].Observe(v) {
				st.Bursts++
			}
			p.peak[k] *= peakDecay
			if v > p.peak[k] {
				p.peak[k] = v
			}
		}
	}
	p.epochs++
	reg := Registry()
	if p.primed && obsSum > 0 {
		st.Error = absErr / obsSum
		reg.Distribution("te_prediction_error", 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2).Observe(st.Error)
	}
	if st.Bursts > 0 {
		reg.Counter("te_bursts_total").Add(int64(st.Bursts))
	}
	return st, nil
}

// Predict returns the demand matrix for the topology engineer:
// per-pair max(EWMA baseline, decayed peak).
func (p *Predictor) Predict() [][]float64 {
	n := p.blocks
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i == j {
				continue
			}
			k := i*n + j
			mean, _ := p.det[k].Baseline()
			v := mean
			if p.peak[k] > v {
				v = p.peak[k]
			}
			if v < 0 {
				v = 0
			}
			out[i][j] = v
			p.last[k] = v
		}
	}
	p.primed = true
	return out
}
