// Package telemetry provides the metrics and anomaly-reporting substrate the
// paper describes as essential for operating lightwave fabrics at scale
// (§3.2.2: "We invested heavily in improving telemetry and anomaly reporting
// ... the ability to deeply integrate the control and monitoring software
// with the rest of our network infrastructure was essential given that the
// switches had a large blast radius").
//
// It offers a concurrency-safe metric registry (counters, gauges,
// histograms) and an EWMA-based anomaly detector used for BER and
// insertion-loss monitoring, which writes its alerts as log/slog records.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d; d must be non-negative.
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("telemetry: negative Counter.Add")
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add atomically adds d to the gauge (d may be negative), so concurrent
// in-flight style accounting needs no external lock.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(floatFromBits(old)+d)) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// Distribution is a concurrency-safe streaming distribution with fixed
// exponential-ish buckets plus summary moments, suitable for BER and loss
// telemetry.
type Distribution struct {
	mu      sync.Mutex
	n       int64
	sum     float64
	sumSq   float64
	min     float64
	max     float64
	buckets []float64 // upper bounds
	counts  []int64
}

// NewDistribution returns a distribution with the given bucket upper bounds
// (must be sorted ascending); a final +Inf bucket is implicit.
func NewDistribution(bounds ...float64) *Distribution {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: distribution bounds not ascending")
		}
	}
	return &Distribution{buckets: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample.
func (d *Distribution) Observe(v float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		d.min, d.max = v, v
	} else {
		if v < d.min {
			d.min = v
		}
		if v > d.max {
			d.max = v
		}
	}
	d.n++
	d.sum += v
	d.sumSq += v * v
	i := sort.SearchFloat64s(d.buckets, v)
	d.counts[i]++
}

// Snapshot returns a consistent copy of the distribution state.
func (d *Distribution) Snapshot() DistSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DistSnapshot{
		N: d.n, Sum: d.sum, Min: d.min, Max: d.max,
		Bounds: append([]float64(nil), d.buckets...),
		Counts: append([]int64(nil), d.counts...),
	}
	if d.n > 0 {
		s.Mean = d.sum / float64(d.n)
	}
	return s
}

// DistSnapshot is a point-in-time copy of a Distribution.
type DistSnapshot struct {
	N         int64
	Sum, Mean float64
	Min, Max  float64
	Bounds    []float64
	Counts    []int64 // len(Bounds)+1; last bucket is overflow
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the target rank, clamped to the observed
// [Min, Max] range. It returns 0 when the snapshot is empty.
func (s DistSnapshot) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.N)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo := s.Min
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < hi {
				hi = s.Bounds[i]
			}
			if lo > hi {
				lo = hi
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.Max
}

// Registry is a named collection of metrics. The zero value is unusable; use
// NewRegistry. Metric creation is idempotent per name and type; requesting an
// existing name with a different type panics, surfacing wiring bugs early.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return registryGet(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return registryGet(r, name, func() *Gauge { return &Gauge{} })
}

// Distribution returns the distribution registered under name, creating it
// with the supplied bounds if needed. Bounds are ignored when the metric
// already exists.
func (r *Registry) Distribution(name string, bounds ...float64) *Distribution {
	return registryGet(r, name, func() *Distribution { return NewDistribution(bounds...) })
}

// Names returns the sorted names of all registered metrics.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func registryGet[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(T)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %q registered with a different type", name))
		}
		return t
	}
	t := mk()
	r.metrics[name] = t
	return t
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
