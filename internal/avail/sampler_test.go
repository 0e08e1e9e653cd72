package avail

import (
	"errors"
	"math"
	"testing"

	"lightwave/internal/par"
	"lightwave/internal/sim"
)

func TestSampleTimelinesDeterministicAcrossWorkerCounts(t *testing.T) {
	p := timelineParams(true)
	p.Years = 5 // keep the stress short; 8 runs × 5 years is plenty of events
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	base, err := SampleTimelines(p, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		par.SetWorkers(w)
		got, err := SampleTimelines(p, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		if got.MeanDelivered != base.MeanDelivered || got.Failures != base.Failures || got.Swaps != base.Swaps {
			t.Fatalf("workers=%d: %+v != %+v", w, got, base)
		}
		for i := range got.Results {
			if got.Results[i] != base.Results[i] {
				t.Fatalf("workers=%d: run %d differs", w, i)
			}
		}
	}
}

func TestSampleTimelinesAggregates(t *testing.T) {
	p := timelineParams(true)
	p.Years = 5
	stats, err := SampleTimelines(p, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Results) != 6 {
		t.Fatalf("got %d runs, want 6", len(stats.Results))
	}
	if stats.MinDelivered > stats.MeanDelivered || stats.MeanDelivered > 1 {
		t.Fatalf("inconsistent stats: %+v", stats)
	}
	if stats.Failures == 0 {
		t.Fatal("no failures over 30 simulated years of runs is implausible")
	}
}

func TestSampleTimelinesRejectsDegenerateParams(t *testing.T) {
	p := timelineParams(true)
	p.Years = 0
	if _, err := SampleTimelines(p, 4, 1); !errors.Is(err, ErrTimeline) {
		t.Fatalf("err = %v", err)
	}
}

func TestGoodputSurfaceMatchesPointwise(t *testing.T) {
	avails := []float64{0.99, 0.999}
	ks := []int{1, 16, 32}
	pts := GoodputSurface(avails, ks)
	if len(pts) != len(avails)*len(ks) {
		t.Fatalf("got %d points", len(pts))
	}
	i := 0
	for _, a := range avails {
		for _, k := range ks {
			p := DefaultPod(a)
			pt := pts[i]
			i++
			if pt.ServerAvail != a || pt.SliceCubes != k {
				t.Fatalf("point %d mislabeled: %+v", i-1, pt)
			}
			if pt.Static != p.Goodput(k, false) || pt.Reconfigurable != p.Goodput(k, true) {
				t.Fatalf("point %d diverges from pointwise Goodput: %+v", i-1, pt)
			}
		}
	}
}

func TestStaticGroupsRemainder(t *testing.T) {
	p := DefaultPod(0.999)
	p.Cubes = 10
	if g, l := p.staticGroups(3); g != 3 || l != 1 {
		t.Fatalf("staticGroups(3) on 10 cubes = (%d, %d), want (3, 1)", g, l)
	}
	if g, l := p.staticGroups(5); g != 2 || l != 0 {
		t.Fatalf("staticGroups(5) on 10 cubes = (%d, %d), want (2, 0)", g, l)
	}
}

// TestStaticRemainderAgainstClosedForm pins the static advertisement and
// its Monte-Carlo cross-check to the closed-form binomial result for both
// a divisible and a non-divisible pod, so the Cubes%k leftover handling is
// explicit: leftover cubes are held back, the advertised groups follow
// Binomial(groups, CubeAvail^k).
func TestStaticRemainderAgainstClosedForm(t *testing.T) {
	for _, tc := range []struct {
		cubes, k int
	}{
		{12, 3}, // divisible: 4 groups, no leftover
		{10, 3}, // remainder: 3 groups, 1 held-back cube
	} {
		p := DefaultPod(0.999)
		p.Cubes = tc.cubes
		p.Target = 0.9
		groups, leftover := p.staticGroups(tc.k)
		if groups*tc.k+leftover != tc.cubes {
			t.Fatalf("groups accounting broken: %d*%d+%d != %d", groups, tc.k, leftover, tc.cubes)
		}
		// Closed form: largest m with P(X >= m) >= Target, X ~ Bin(groups, pSlice).
		pSlice := math.Pow(p.CubeAvail(), float64(tc.k))
		wantM := 0
		for wantM+1 <= groups && binomialSurvival(sim.LogChooseTable(groups), pSlice, wantM+1) >= p.Target {
			wantM++
		}
		if got := p.StaticSlices(tc.k); got != wantM {
			t.Fatalf("cubes=%d k=%d: StaticSlices = %d, closed form %d", tc.cubes, tc.k, got, wantM)
		}
		wantGoodput := float64(wantM*tc.k) / float64(tc.cubes)
		if got := p.Goodput(tc.k, false); math.Abs(got-wantGoodput) > 1e-12 {
			t.Fatalf("cubes=%d k=%d: goodput %v, want %v", tc.cubes, tc.k, got, wantGoodput)
		}
		// The Monte-Carlo sampler must agree: the advertisement derived from
		// the closed form is deliverable in the sampled fleet too.
		if got := p.MonteCarloGoodput(tc.k, false, 8000, sim.NewRand(5)); got != wantGoodput {
			t.Fatalf("cubes=%d k=%d: MC goodput %v, want %v", tc.cubes, tc.k, got, wantGoodput)
		}
	}
}

func TestMonteCarloGoodputDeterministicAcrossWorkerCounts(t *testing.T) {
	p := DefaultPod(0.999)
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	base := p.MonteCarloGoodput(16, true, 4000, sim.NewRand(3))
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		if got := p.MonteCarloGoodput(16, true, 4000, sim.NewRand(3)); got != base {
			t.Fatalf("workers=%d: %v != %v", w, got, base)
		}
	}
}

// TimelineStats aggregates independent SimulateTimeline runs.
type TimelineStats struct {
	// Results holds every run's outcome in run order.
	Results []TimelineResult
	// MeanDelivered / MinDelivered summarize delivered availability across
	// runs; MeanAllUp is the mean fraction of time all slices were up.
	MeanDelivered, MinDelivered float64
	MeanAllUp                   float64
	// Failures and Swaps total across runs.
	Failures, Swaps int
}

// SampleTimelines runs `runs` independent continuous-time simulations of p
// in parallel. Each shard of runs draws from its own substream of seed, so
// the sample is deterministic for a given seed at any worker count.
func SampleTimelines(p TimelineParams, runs int, seed uint64) (TimelineStats, error) {
	if runs <= 0 {
		runs = 1
	}
	// Validate once up front so degenerate parameters fail fast instead of
	// per-shard.
	if p.Years <= 0 || p.MTTRHours <= 0 || p.SliceCubes <= 0 {
		return TimelineStats{}, ErrTimeline
	}
	type shardOut struct {
		res []TimelineResult
		err error
	}
	outs := par.MonteCarlo("avail_timeline", runs, seed, func(sh par.Shard) shardOut {
		var o shardOut
		for i := 0; i < sh.Trials(); i++ {
			r, err := SimulateTimeline(p, sh.Rng)
			if err != nil {
				o.err = err
				return o
			}
			o.res = append(o.res, r)
		}
		return o
	})

	var stats TimelineStats
	stats.MinDelivered = 1
	for _, o := range outs {
		if o.err != nil {
			return TimelineStats{}, o.err
		}
		for _, r := range o.res {
			stats.Results = append(stats.Results, r)
			stats.MeanDelivered += r.Delivered
			stats.MeanAllUp += r.AllUpFraction
			if r.Delivered < stats.MinDelivered {
				stats.MinDelivered = r.Delivered
			}
			stats.Failures += r.Failures
			stats.Swaps += r.Swaps
		}
	}
	n := float64(len(stats.Results))
	stats.MeanDelivered /= n
	stats.MeanAllUp /= n
	return stats, nil
}
