package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// sampleEvery is the latency and span sampling stride of the
	// high-rate closed loops: timing every call costs two clock reads per
	// request, which would distort the rates the loops exist to measure.
	sampleEvery = 8
	// phaseWindows is how many equal windows a timed phase is cut into;
	// rates are reported as the median over windows so one stall (a GC
	// cycle, a noisy neighbour) does not set the result.
	phaseWindows = 16
)

// counter is one caller's completion count on its own cache line.
type counter struct {
	n atomic.Int64
	_ [56]byte
}

// phase is the shared state of one timed closed-loop phase.
type phase struct {
	stop   atomic.Bool
	counts []counter
	failed atomic.Int64
	// lat[c] and ack[c] are caller c's sampled latencies in seconds: of
	// the workload's primary operation, and of the mutation RPC inside it
	// where the two differ.
	lat, ack [][]float64
}

// phaseResult is what a timed phase produced.
type phaseResult struct {
	bounds   []boundary
	lat, ack []float64 // seconds
	ops      int64     // primary operations completed
	others   int64     // operations beside the primary stream (the open-loop mutator)
	failed   int64
	// extra carries per-layer values only the generator can know.
	extra map[string]float64
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func newPhase(callers int) *phase {
	return &phase{
		counts: make([]counter, callers),
		lat:    make([][]float64, callers),
		ack:    make([][]float64, callers),
	}
}

// total is the number of operations completed so far.
func (p *phase) total() int64 {
	var n int64
	for i := range p.counts {
		n += p.counts[i].n.Load()
	}
	return n
}

// launch starts body once per caller and returns the group to wait on
// after setting p.stop. Each body loops until p.stop is set, adding to
// p.counts[caller] per completed operation.
func (p *phase) launch(body func(p *phase, caller int)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for c := range p.counts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(p, c)
		}(c)
	}
	return &wg
}

// warm runs body on every caller until n operations have completed — the
// fixed warm-up that ends each set-up.
func warm(n int64, callers int, body func(p *phase, caller int)) {
	p := newPhase(callers)
	wg := p.launch(body)
	for p.total() < n {
		time.Sleep(200 * time.Microsecond)
	}
	p.stop.Store(true)
	wg.Wait()
}

// runClosed runs body once per caller, concurrently, for the given time
// and samples a boundary at each window edge.
func runClosed(seconds float64, callers int, body func(p *phase, caller int)) phaseResult {
	p := newPhase(callers)
	start := time.Now()
	bounds := []boundary{{cpuS: cpuSeconds()}}
	wg := p.launch(body)
	window := time.Duration(seconds / phaseWindows * float64(time.Second))
	for w := 1; w <= phaseWindows; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		bounds = append(bounds, boundary{at: time.Since(start).Seconds(), ops: p.total(), cpuS: cpuSeconds()})
	}
	p.stop.Store(true)
	wg.Wait()
	res := phaseResult{bounds: bounds, ops: p.total(), failed: p.failed.Load()}
	for c := 0; c < callers; c++ {
		res.lat = append(res.lat, p.lat[c]...)
		res.ack = append(res.ack, p.ack[c]...)
	}
	return res
}

// cost is what one pass consumed while its timer ran.
type cost struct{ wallS, cpuS float64 }

// timed runs fn and reports what it cost.
func timed(fn func() error) (cost, error) {
	t0, c0 := time.Now(), cpuSeconds()
	err := fn()
	return cost{time.Since(t0).Seconds(), cpuSeconds() - c0}, err
}

func (c cost) plus(d cost) cost { return cost{c.wallS + d.wallS, c.cpuS + d.cpuS} }

// runPasses repeats pass until the time is up; every pass is one window
// and one latency sample. A pass reports its own cost, so work it does
// outside its timer (copying a directory, checking outputs) is excluded.
func runPasses(seconds float64, pass func() (cost, error)) phaseResult {
	start := time.Now()
	res := phaseResult{bounds: []boundary{{}}}
	var sum cost
	for time.Since(start).Seconds() < seconds {
		c, err := pass()
		sum = sum.plus(c)
		res.lat = append(res.lat, c.wallS)
		res.ops++
		if err != nil {
			res.failed++
		}
		res.bounds = append(res.bounds, boundary{at: sum.wallS, ops: res.ops, cpuS: sum.cpuS})
	}
	return res
}

// openLoop accounts for an arrival stream that sends on a schedule whether
// or not earlier requests have completed: request i is due at
// start + i×period, its latency runs from that due time (so a stall is
// charged to every request it delays), and it counts as late when the
// generator could not send it within lateAfter of its due time.
type openLoop struct {
	start     time.Time
	period    time.Duration
	lateAfter time.Duration

	fromDue []float64 // seconds from due time to completion
	late    int
}

func (o *openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.period) }

func (o *openLoop) record(i int, sent, done time.Time) {
	due := o.due(i)
	o.fromDue = append(o.fromDue, done.Sub(due).Seconds())
	if sent.Sub(due) > o.lateAfter {
		o.late++
	}
}

func (o *openLoop) lateShare() float64 {
	if len(o.fromDue) == 0 {
		return 0
	}
	return float64(o.late) / float64(len(o.fromDue))
}

// run issues op(i) at each due time until stop is set. The next request
// is never skipped: if op overruns its period the backlog shows as
// lateness.
func (o *openLoop) run(stop *atomic.Bool, op func(i int) error, failed *atomic.Int64) {
	for i := 0; !stop.Load(); i++ {
		time.Sleep(time.Until(o.due(i)))
		if stop.Load() {
			return
		}
		sent := time.Now()
		if err := op(i); err != nil {
			failed.Add(1)
		}
		o.record(i, sent, time.Now())
	}
}
