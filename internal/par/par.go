// Package par is the deterministic parallel simulation engine: it fans
// Monte-Carlo trials and parameter sweeps out across a worker pool sized by
// GOMAXPROCS while keeping results bit-identical at any worker count.
//
// Determinism rests on two rules. First, work is divided into a fixed
// number of shards that depends only on the trial count — never on the
// worker count — so the same shard always covers the same trial range.
// Second, each shard draws randomness from its own sim.Rand substream
// derived by hashing (base seed, shard index) via sim.Substream, the only
// sanctioned way to split a generator across goroutines. Workers merely
// decide which shard runs when; results are collected by shard index, so
// scheduling order can never leak into the output. `go test -cpu 1,4,8`
// therefore produces byte-identical simulation results.
//
// Every fan-out call records telemetry (calls, trials, shards, busy wall
// time) under par_<name>_* in a telemetry.Registry, so daemons that mount
// the registry on /metrics expose the engine's speedups.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lightwave/internal/sim"
	"lightwave/internal/telemetry"
)

// maxShards bounds the shard count of one fan-out. It is a constant — NOT
// derived from GOMAXPROCS — because the shard structure is part of the
// deterministic contract. 64 shards keep every machine up to 64 cores busy
// while staying cheap to merge.
const maxShards = 64

// workerOverride, when positive, pins the worker count (tests use it to
// prove worker-count independence without re-running the binary under
// different -cpu values).
var workerOverride atomic.Int64

// registry holds the engine's metrics; swap it with SetRegistry to surface
// the counters on a daemon's /metrics endpoint.
var registry atomic.Pointer[telemetry.Registry]

func init() {
	registry.Store(telemetry.NewRegistry())
}

// Workers returns the number of goroutines fan-out calls use: the
// SetWorkers override when set, otherwise runtime.GOMAXPROCS(0).
func Workers() int {
	if w := workerOverride.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the worker count and returns the previous override
// (0 means automatic). Passing 0 restores GOMAXPROCS sizing. Results are
// identical for any setting; only wall time changes.
//
//lwlint:ignore deadexport the seam the 1/4/8-worker determinism tests of dcn, chaos and superpod turn
func SetWorkers(n int) int {
	return int(workerOverride.Swap(int64(n)))
}

// SetRegistry redirects the engine's telemetry to r (nil restores a fresh
// private registry). Daemons call this once at startup so par_* counters
// appear alongside their other metrics.
func SetRegistry(r *telemetry.Registry) {
	if r == nil {
		r = telemetry.NewRegistry()
	}
	registry.Store(r)
}

// Registry returns the registry currently receiving the engine's metrics.
func Registry() *telemetry.Registry {
	return registry.Load()
}

// Shard is one contiguous block of trials of a MonteCarlo fan-out.
type Shard struct {
	// Index is the shard number in [0, Count); Count depends only on the
	// trial count.
	Index, Count int
	// Start and End delimit the shard's trial range [Start, End).
	Start, End int
	// Rng is the shard's private substream, derived from (seed, Index).
	// It must not be shared with other shards.
	Rng *sim.Rand
}

// Trials returns the number of trials in the shard.
func (s Shard) Trials() int { return s.End - s.Start }

// NumShards returns the shard count used for n trials: min(n, 64),
// independent of the worker count by design.
func NumShards(n int) int {
	if n < maxShards {
		if n < 0 {
			return 0
		}
		return n
	}
	return maxShards
}

// MonteCarlo shards trials across the worker pool and returns one result
// per shard, in shard order. Each shard's body receives an independent
// substream of seed; for a fixed seed the returned slice is identical at
// any worker count. name labels the telemetry counters.
func MonteCarlo[R any](name string, trials int, seed uint64, body func(Shard) R) []R {
	nsh := NumShards(trials)
	if nsh == 0 {
		return nil
	}
	results := make([]R, nsh)
	per, extra := trials/nsh, trials%nsh
	start := 0
	shards := make([]Shard, nsh)
	for i := 0; i < nsh; i++ {
		n := per
		if i < extra {
			n++
		}
		shards[i] = Shard{
			Index: i, Count: nsh,
			Start: start, End: start + n,
			Rng: sim.Substream(seed, uint64(i)),
		}
		start += n
	}
	run(name, trials, nsh, func(i int) {
		results[i] = body(shards[i])
	})
	return results
}

// Sweep runs fn once per sweep point on the worker pool and returns the
// results in input order. Each point's computation stays sequential; use it
// for parameter sweeps whose points are independent (load fractions, power
// levels, slice sizes).
func Sweep[T, R any](name string, points []T, fn func(i int, pt T) R) []R {
	if len(points) == 0 {
		return nil
	}
	results := make([]R, len(points))
	run(name, len(points), len(points), func(i int) {
		results[i] = fn(i, points[i])
	})
	return results
}

// Map runs fn(i) for every i in [0, n) on the worker pool. fn must only
// write to index-disjoint state.
func Map(name string, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	run(name, n, n, fn)
}

// run executes fn(0..n-1) on min(Workers, n) goroutines, propagating the
// first panic to the caller, and records telemetry for the call.
func run(name string, trials, n int, fn func(int)) {
	//lwlint:ignore walltime busy-time telemetry only; shard results are merged in index order regardless of timing
	startT := time.Now()
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
	} else {
		var next atomic.Int64
		var panicked atomic.Pointer[any]
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, &r)
					}
				}()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
		if p := panicked.Load(); p != nil {
			panic(*p)
		}
	}
	reg := Registry()
	reg.Counter("par_" + name + "_calls_total").Inc()
	reg.Counter("par_" + name + "_trials_total").Add(int64(trials))
	reg.Counter("par_" + name + "_shards_total").Add(int64(n))
	//lwlint:ignore walltime busy-time telemetry only; feeds a metrics counter, never a result
	reg.Counter("par_" + name + "_busy_micros_total").Add(time.Since(startT).Microseconds())
	reg.Gauge("par_" + name + "_workers").Set(float64(w))
}
