package telemetry

import (
	"fmt"
	"math"
	"sync"
)

// Severity classifies an alert.
type Severity int

// Alert severities, in increasing order of urgency.
const (
	Info Severity = iota
	Warning
	Critical
)

// String returns the conventional lowercase name of the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Alert is an anomaly report emitted by a Detector.
type Alert struct {
	Source   string
	Severity Severity
	Message  string
	Value    float64
}

// AlertSink receives alerts. Implementations must be safe for concurrent
// use; the fabric control plane registers one to react to link degradation.
type AlertSink interface {
	Post(Alert)
}

// SinkFunc adapts a function to the AlertSink interface.
type SinkFunc func(Alert)

// Post implements AlertSink.
func (f SinkFunc) Post(a Alert) { f(a) }

// MemorySink is an AlertSink that retains alerts in memory, for tests and
// in-process consumers.
type MemorySink struct {
	mu     sync.Mutex
	alerts []Alert
}

// Post implements AlertSink.
func (m *MemorySink) Post(a Alert) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alerts = append(m.alerts, a)
}

// Alerts returns a copy of all alerts posted so far.
func (m *MemorySink) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// Detector flags anomalous observations in a telemetry stream using an
// exponentially weighted moving average and variance: a sample more than
// warnSigmas standard deviations above the EWMA (after a warmup period)
// raises a Warning, and a sample above the HardLimit raises a Critical alert
// regardless of history. This mirrors the production pattern of combining
// adaptive baselines with absolute specifications (e.g. the −38 dB return
// loss spec and the 2e-4 KP4 BER threshold).
type Detector struct {
	Source    string
	Alpha     float64 // EWMA weight for new samples, in (0, 1]
	HardLimit float64 // absolute Critical limit
	Warmup    int     // samples before adaptive alerts fire

	sink AlertSink

	mu   sync.Mutex
	n    int
	mean float64
	vari float64
}

// NewDetector returns a detector posting to sink. A nil sink discards
// alerts.
func NewDetector(source string, sink AlertSink) *Detector {
	if sink == nil {
		sink = SinkFunc(func(Alert) {})
	}
	return &Detector{
		Source:    source,
		Alpha:     0.1,
		HardLimit: math.Inf(1),
		Warmup:    16,
		sink:      sink,
	}
}

// warnSigmas is the stddev multiplier above the baseline at which a
// sample raises a Warning.
const warnSigmas = 4

// Observe feeds one sample and reports whether it was flagged anomalous.
func (d *Detector) Observe(v float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()

	anomalous := false
	if v > d.HardLimit {
		d.sink.Post(Alert{
			Source:   d.Source,
			Severity: Critical,
			Message:  fmt.Sprintf("value %.4g exceeds hard limit %.4g", v, d.HardLimit),
			Value:    v,
		})
		anomalous = true
	} else if d.n >= d.Warmup {
		sd := math.Sqrt(d.vari)
		if sd > 0 && v > d.mean+warnSigmas*sd {
			d.sink.Post(Alert{
				Source:   d.Source,
				Severity: Warning,
				Message:  fmt.Sprintf("value %.4g is %.1f sigma above baseline %.4g", v, (v-d.mean)/sd, d.mean),
				Value:    v,
			})
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
