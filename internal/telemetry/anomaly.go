package telemetry

import (
	"log/slog"
	"math"
	"sync"
)

// Detector flags anomalous observations in a telemetry stream using an
// exponentially weighted moving average and variance: a sample more than
// warnSigmas standard deviations above the EWMA (after a warmup period)
// writes a Warn record, and a sample above the HardLimit writes an Error
// record regardless of history; each record carries the sample's value.
// This mirrors the production pattern of combining adaptive baselines
// with absolute specifications (e.g. the −38 dB return loss spec and the
// 2e-4 KP4 BER threshold).
type Detector struct {
	Alpha     float64 // EWMA weight for new samples, in (0, 1]
	HardLimit float64 // absolute Error limit
	Warmup    int     // samples before adaptive alerts fire

	log *slog.Logger

	mu   sync.Mutex
	n    int
	mean float64
	vari float64
}

// NewDetector returns a detector writing its alerts to log, whose
// attributes name what it watches. A nil log discards them.
func NewDetector(log *slog.Logger) *Detector {
	return &Detector{
		Alpha:     0.1,
		HardLimit: math.Inf(1),
		Warmup:    16,
		log:       log,
	}
}

// warnSigmas is the stddev multiplier above the baseline at which a
// sample writes a Warn record.
const warnSigmas = 4

// Observe feeds one sample and reports whether it was flagged anomalous.
func (d *Detector) Observe(v float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()

	anomalous := false
	if v > d.HardLimit {
		if d.log != nil {
			d.log.Error("value exceeds hard limit", "value", v, "limit", d.HardLimit)
		}
		anomalous = true
	} else if d.n >= d.Warmup {
		sd := math.Sqrt(d.vari)
		if sd > 0 && v > d.mean+warnSigmas*sd {
			if d.log != nil {
				d.log.Warn("value above baseline", "value", v, "sigma", (v-d.mean)/sd, "baseline", d.mean)
			}
			anomalous = true
		}
	}

	// Update the baseline with non-anomalous samples only, so a fault does
	// not teach the detector that faults are normal.
	if !anomalous {
		if d.n == 0 {
			d.mean = v
		}
		delta := v - d.mean
		d.mean += d.Alpha * delta
		d.vari = (1 - d.Alpha) * (d.vari + d.Alpha*delta*delta)
		d.n++
	}
	return anomalous
}

// Baseline returns the current EWMA mean and standard deviation.
func (d *Detector) Baseline() (mean, stddev float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mean, math.Sqrt(d.vari)
}
