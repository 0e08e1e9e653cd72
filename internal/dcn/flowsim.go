package dcn

import (
	"errors"
	"fmt"
	"math"

	"lightwave/internal/sim"
)

// Flow-level simulator: flows arrive on block pairs following a traffic
// matrix, are routed on the direct trunk or a two-hop transit path (the
// routing style of the spine-free Jupiter fabric), receive max-min fair
// rates recomputed as the flow population changes, and complete when their
// bytes drain. The engineered topology's advantage — capacity where the
// demand is — shows up as lower flow completion times and higher achieved
// throughput.
//
// The event loop is built for speed without sacrificing reproducibility:
// arrivals live in an index-tie-broken binary min-heap, flows that share a
// path are aggregated into one path class that max-min fills as a unit,
// all per-link state is kept in flat arrays indexed by src*n+dst and
// reused across events via epoch stamping, and flow structs are pooled.
// Every tie-break and floating-point accumulation order matches the
// original linear-scan/map implementation, so results are bit-identical
// (see golden_test.go for the pinned contract, and reference_test.go for
// the per-flow engine FuzzMaxMinRates holds this one to).

// Workload describes the offered traffic.
type Workload struct {
	// Demand[i][j] is the offered load from block i to j in bytes/s.
	Demand [][]float64
	// MeanFlowBytes is the mean of the exponential flow-size
	// distribution.
	MeanFlowBytes float64
	// Duration is the simulated time horizon in seconds.
	Duration float64
}

// SimConfig parameterizes the simulator.
type SimConfig struct {
	// TrunkBps is the capacity of one trunk in bytes/s, per direction.
	TrunkBps float64
	// Seed fixes the arrival process.
	Seed uint64
	// MaxTransit is the number of candidate transit blocks examined per
	// flow (least-loaded two-hop routing).
	MaxTransit int
}

// DefaultSimConfig returns a 400G-trunk configuration.
func DefaultSimConfig() SimConfig {
	return SimConfig{TrunkBps: 50e9, Seed: 1, MaxTransit: 4}
}

// SimResult aggregates the run.
type SimResult struct {
	CompletedFlows int
	// MeanFCT and P99FCT are flow-completion-time statistics in seconds.
	MeanFCT, MedianFCT, P99FCT float64
	// ThroughputBps is completed bytes over the duration.
	ThroughputBps float64
	// TransitFraction is the share of flows that took a two-hop path.
	TransitFraction float64
}

type flow struct {
	class     *pathClass // the path the flow rides
	size      float64
	remaining float64
	started   float64
	rate      float64
	idx       int // position in the active slice
}

// pathClass is one path — an ordered list of directed links — and the
// number of active flows riding it. Flows on one path meet the same links
// in every progressive-filling round, so they freeze in the same round at
// the same rate: max-min fills classes, not flows.
type pathClass struct {
	// hopIdx[:nhops] are the directed links used, as flat src*n+dst
	// indices (one hop for direct, two for transit).
	hopIdx [2]int
	nhops  int
	count  int // active flows on the path
	// epoch stamps the recompute that last visited the class, and rate is
	// its fair share there (-1 until the class freezes).
	epoch uint64
	rate  float64
}

// ErrMismatch is returned when workload and topology disagree on size.
var ErrMismatch = errors.New("dcn: workload does not match topology")

// ErrDegenerate is returned for inputs that would otherwise surface deep
// inside the simulation as NaN/Inf fair-share rates, divide-by-zero, or
// flows that never drain: a non-positive or non-finite trunk rate,
// non-positive mean flow size / duration, non-finite or negative demand
// entries, an all-zero demand matrix, or a demanded block pair with no
// usable path (no direct trunk and no two-hop transit — the
// zero-capacity-trunk case).
var ErrDegenerate = errors.New("dcn: degenerate simulation input")

// simEngine holds one simulation run's entire state. All scratch is
// allocated once in newSimEngine and reused event-to-event, so the loop
// itself runs allocation-free in steady state (the fcts slice and pooled
// per-link class lists grow amortized-O(1) until they reach the run's high
// water mark).
type simEngine struct {
	top   *Topology
	n     int
	w     Workload
	cfg   SimConfig
	trunk float64
	rng   *sim.Rand

	pairs []pairRate

	// Arrival calendar: next[k] is pair k's next arrival time, and heap
	// holds pair indices ordered by (next[k], k). The index tie-break
	// reproduces the original linear scan's lowest-index-wins rule.
	next []float64
	heap []int32

	// Flat per-directed-link state, indexed src*n+dst.
	load        []float64 // current flow count per link
	linkCapBase []float64 // float64(Links[i][j]) * TrunkBps

	active []*flow
	free   []*flow // pooled flow structs of completed flows

	// classes holds one class per possible path, at (src*n+dst)*n+via with
	// via = dst for the direct path: n³ slots, so a class never moves and
	// a flow keeps a pointer to it.
	classes []pathClass

	// Max-min fair-share scratch, epoch-stamped so a recompute touches
	// only the links the active classes actually use and never re-zeroes
	// the full n×n arrays.
	epoch        uint64
	linkEpoch    []uint64
	linkCapacity []float64
	linkClasses  [][]*pathClass // classes crossing the link
	linkUnfrozen []int          // flows of unfrozen classes crossing the link
	linkPos      []int          // the link's position in links
	links        []int          // links in first-touch order
	// tree is a tournament over the links' fair shares: leaf
	// tree[width+p] is links[p]'s share (+Inf once no unfrozen flow
	// crosses it, and for the padding up to the power-of-two width),
	// every inner node holds its children's smaller share (the left one
	// on a tie), and tree[1] is the round's bottleneck.
	tree    []match
	width   int
	touched []int // positions of the links a freezing round changed

	// The earliest completion under the current rates, found as the rates
	// are written back (done is nil when no active flow drains).
	done   *flow
	doneAt float64

	now            float64
	fcts           []float64
	completedBytes float64
	transit, total int

	// Telemetry accumulators, flushed to the package registry once per
	// run (per-event atomics would dominate the loop).
	events, arrivals, completions, recomputeRounds, poolHits, poolMisses int64
}

// newSimEngine validates the inputs and allocates the run's state. The
// returned engine is positioned at t=0 with the first arrival of every
// pair already scheduled.
func newSimEngine(t *Topology, w Workload, cfg SimConfig) (*simEngine, error) {
	n := t.Blocks
	if len(w.Demand) != n {
		return nil, fmt.Errorf("%w: demand %d blocks, topology %d", ErrMismatch, len(w.Demand), n)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.TrunkBps > 0) || math.IsInf(cfg.TrunkBps, 1) {
		return nil, fmt.Errorf("%w: trunk rate %g B/s", ErrDegenerate, cfg.TrunkBps)
	}
	if w.MeanFlowBytes <= 0 {
		return nil, fmt.Errorf("%w: mean flow size %g bytes", ErrDegenerate, w.MeanFlowBytes)
	}
	if w.Duration <= 0 {
		return nil, fmt.Errorf("%w: duration %g s", ErrDegenerate, w.Duration)
	}
	pairs, err := demandPairs(t, w)
	if err != nil {
		return nil, err
	}

	width := 1
	for width < n*n {
		width <<= 1
	}
	s := &simEngine{
		top:   t,
		n:     n,
		w:     w,
		cfg:   cfg,
		trunk: cfg.TrunkBps,
		pairs: pairs,
		next:  make([]float64, len(pairs)),
		heap:  make([]int32, len(pairs)),

		load:        make([]float64, n*n),
		linkCapBase: make([]float64, n*n),

		classes: make([]pathClass, n*n*n),

		linkEpoch:    make([]uint64, n*n),
		linkCapacity: make([]float64, n*n),
		linkClasses:  make([][]*pathClass, n*n),
		linkUnfrozen: make([]int, n*n),
		linkPos:      make([]int, n*n),
		links:        make([]int, 0, n*n),
		tree:         make([]match, 2*width),
		touched:      make([]int, 0, n*n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.linkCapBase[i*n+j] = float64(t.Links[i][j]) * cfg.TrunkBps
		}
	}
	s.reset()
	return s, nil
}

// reset rewinds the engine to t=0 with a fresh arrival process from
// cfg.Seed, returning all in-flight flows to the pool. All scratch arrays
// are retained, so a reset engine replays the run without allocating.
func (s *simEngine) reset() {
	s.rng = sim.NewRand(s.cfg.Seed)
	for k := range s.pairs {
		s.next[k] = s.rng.ExpFloat64() / s.pairs[k].rate
		s.heap[k] = int32(k)
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	for _, f := range s.active {
		f.class.count--
	}
	s.free = append(s.free, s.active...)
	s.active = s.active[:0]
	s.done = nil
	for i := range s.load {
		s.load[i] = 0
	}
	s.now = 0
	s.fcts = s.fcts[:0]
	s.completedBytes = 0
	s.transit, s.total = 0, 0
}

// arrivalLess orders pairs by (next arrival time, pair index): among
// simultaneous arrivals the lowest pair index wins, exactly like the
// original first-minimum linear scan over next[].
//
//lwlint:hotpath
func (s *simEngine) arrivalLess(a, b int32) bool {
	ta, tb := s.next[a], s.next[b]
	return ta < tb || (ta == tb && a < b)
}

// siftDown restores the heap property below slot i. It is the only heap
// primitive the loop needs: an arrival only ever reschedules the root
// (its new time is strictly later), and no other slot's key changes.
//
//lwlint:hotpath
func (s *simEngine) siftDown(i int) {
	h := s.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && s.arrivalLess(h[r], h[l]) {
			m = r
		}
		if !s.arrivalLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

//lwlint:hotpath
func (s *simEngine) getFlow() *flow {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		s.poolHits++
		*f = flow{}
		return f
	}
	s.poolMisses++
	return &flow{}
}

//lwlint:hotpath
func (s *simEngine) removeActive(f *flow) {
	last := len(s.active) - 1
	s.active[f.idx] = s.active[last]
	s.active[f.idx].idx = f.idx
	s.active = s.active[:last]
}

// step advances the simulation by one event (arrival or completion) and
// reports whether the run continues: false once the horizon is reached.
//
//lwlint:hotpath
func (s *simEngine) step() bool {
	if s.now >= s.w.Duration {
		return false
	}
	// Earliest next event: the heap root is the earliest arrival; the
	// earliest completion (found by the last recompute, the earliest-index
	// active flow winning ties) preempts it only when strictly earlier, as
	// in the original scan.
	kNext := int(s.heap[0])
	tNext := s.next[kNext]
	var fDone *flow
	if s.done != nil && s.doneAt < tNext {
		tNext, kNext, fDone = s.doneAt, -1, s.done
	}
	if tNext > s.w.Duration {
		return false
	}
	// Drain all active flows to tNext.
	dt := tNext - s.now
	for _, f := range s.active {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	s.now = tNext
	s.events++

	if fDone != nil {
		s.completions++
		s.fcts = append(s.fcts, s.now-fDone.started)
		s.completedBytes += fDone.size
		c := fDone.class
		c.count--
		for h := 0; h < c.nhops; h++ {
			s.load[c.hopIdx[h]]--
		}
		s.removeActive(fDone)
		s.free = append(s.free, fDone)
		s.maxMinRates()
		return true
	}

	// Arrival on pair kNext: reschedule the pair (its new draw is later
	// than now, so the root only ever sifts down) and admit the flow.
	s.arrivals++
	p := s.pairs[kNext]
	s.next[kNext] = s.now + s.rng.ExpFloat64()/p.rate
	s.siftDown(0)
	f := s.getFlow()
	f.started = s.now
	f.size = s.rng.ExpFloat64() * s.w.MeanFlowBytes
	f.remaining = f.size
	via, transit := s.choosePath(p.i, p.j)
	s.total++
	var c *pathClass
	if transit {
		s.transit++
		c = &s.classes[(p.i*s.n+p.j)*s.n+via]
		c.nhops = 2
		c.hopIdx[0] = p.i*s.n + via
		c.hopIdx[1] = via*s.n + p.j
	} else {
		// The direct path's slot is via = dst, never a transit block.
		c = &s.classes[(p.i*s.n+p.j)*s.n+p.j]
		c.nhops = 1
		c.hopIdx[0] = p.i*s.n + p.j
	}
	c.count++
	f.class = c
	for h := 0; h < c.nhops; h++ {
		s.load[c.hopIdx[h]]++
	}
	f.idx = len(s.active)
	s.active = append(s.active, f)
	s.maxMinRates()
	return true
}

func (s *simEngine) result() SimResult {
	var res SimResult
	res.CompletedFlows = len(s.fcts)
	if s.total > 0 {
		res.TransitFraction = float64(s.transit) / float64(s.total)
	}
	if len(s.fcts) > 0 {
		res.MeanFCT = sim.Mean(s.fcts)
		res.MedianFCT = sim.Percentile(s.fcts, 50)
		res.P99FCT = sim.Percentile(s.fcts, 99)
	}
	res.ThroughputBps = s.completedBytes / s.w.Duration
	return res
}

// flushMetrics publishes the run's accumulated counters to the package
// registry (dcn_flowsim_*) and zeroes the accumulators.
func (s *simEngine) flushMetrics() {
	reg := Registry()
	reg.Counter("dcn_flowsim_runs_total").Inc()
	reg.Counter("dcn_flowsim_events_total").Add(s.events)
	reg.Counter("dcn_flowsim_arrivals_total").Add(s.arrivals)
	reg.Counter("dcn_flowsim_completions_total").Add(s.completions)
	reg.Counter("dcn_flowsim_recompute_rounds_total").Add(s.recomputeRounds)
	reg.Counter("dcn_flowsim_pool_hits_total").Add(s.poolHits)
	reg.Counter("dcn_flowsim_pool_misses_total").Add(s.poolMisses)
	s.events, s.arrivals, s.completions = 0, 0, 0
	s.recomputeRounds, s.poolHits, s.poolMisses = 0, 0, 0
}

// Simulate runs the flow-level simulation of the workload on the topology.
func Simulate(t *Topology, w Workload, cfg SimConfig) (SimResult, error) {
	s, err := newSimEngine(t, w, cfg)
	if err != nil {
		return SimResult{}, err
	}
	for s.step() {
	}
	s.flushMetrics()
	return s.result(), nil
}

// choosePath picks the direct path when a trunk exists and is not badly
// overloaded relative to the best two-hop alternative; otherwise the least-
// loaded two-hop path. It returns the transit block and true for a two-hop
// path, or (-1, false) for the direct trunk.
//
//lwlint:hotpath
func (s *simEngine) choosePath(src, dst int) (int, bool) {
	links := s.top.Links
	directScore := math.Inf(1)
	if links[src][dst] > 0 {
		directScore = (s.load[src*s.n+dst] + 1) / float64(links[src][dst])
	}
	bestVia, bestScore := -1, math.Inf(1)
	for k := 0; k < s.cfg.MaxTransit; k++ {
		via := s.rng.Intn(s.n)
		sc, ok := s.transitScore(src, dst, via)
		if !ok {
			continue
		}
		sc *= 1.15 // transit uses twice the fabric capacity; bias to direct
		if sc < bestScore {
			bestScore, bestVia = sc, via
		}
	}
	if bestVia >= 0 && bestScore < directScore {
		return bestVia, true
	}
	if links[src][dst] == 0 {
		if bestVia >= 0 {
			return bestVia, true
		}
		// The random probes all missed. A direct "path" here would ride a
		// zero-capacity trunk and never drain, so fall back to a
		// deterministic scan for the least-loaded transit; the demandPairs
		// routability validation guarantees one exists.
		for via := 0; via < s.n; via++ {
			sc, ok := s.transitScore(src, dst, via)
			if !ok {
				continue
			}
			if sc < bestScore {
				bestScore, bestVia = sc, via
			}
		}
		if bestVia >= 0 {
			return bestVia, true
		}
	}
	return -1, false
}

// transitScore scores the two-hop path src→via→dst as the worse of its two
// per-hop load ratios (lower is better). ok is false when via is unusable:
// it coincides with an endpoint or lacks a trunk on either hop.
//
//lwlint:hotpath
func (s *simEngine) transitScore(src, dst, via int) (score float64, ok bool) {
	links := s.top.Links
	if via == src || via == dst || links[src][via] == 0 || links[via][dst] == 0 {
		return 0, false
	}
	s1 := (s.load[src*s.n+via] + 1) / float64(links[src][via])
	s2 := (s.load[via*s.n+dst] + 1) / float64(links[via][dst])
	return math.Max(s1, s2), true
}

// routable reports whether the pair (i, j) has a direct trunk or at least
// one two-hop transit path on t.
func routable(t *Topology, i, j int) bool {
	if t.Links[i][j] > 0 {
		return true
	}
	for v := 0; v < t.Blocks; v++ {
		if v != i && v != j && t.Links[i][v] > 0 && t.Links[v][j] > 0 {
			return true
		}
	}
	return false
}

// maxMinRates computes max-min fair rates by progressive filling over path
// classes, then writes each class's rate to its flows and finds the
// earliest completion on the way. It reproduces the per-flow engine bit
// for bit (reference_test.go keeps that engine; FuzzMaxMinRates compares
// them event by event):
//
//   - Classes are visited in the order of their first active flow, so
//     their hops reach the links in the per-flow engine's first-touch
//     order, the order bottleneck ties are broken in.
//   - A link's unfrozen count sums its classes' flow counts, so every
//     share is the same quotient of the same two numbers.
//   - A freezing class subtracts the round's rate from each of its hops
//     once per flow, each subtraction clamped at zero — never count×rate.
//     All subtractions of a round are the same value, so their order
//     across classes does not change the result.
//   - The tournament tree's left-on-tie pick is the old scan's strict-<
//     first minimum in first-touch order. After a round only the links
//     the frozen classes crossed are replayed up the tree.
//
// The rounds are therefore exactly the per-flow engine's. Epoch stamping
// means only links the active classes touch are (re)initialized, and
// nothing allocates once the per-link class lists have reached their
// high-water length.
//
//lwlint:hotpath
func (s *simEngine) maxMinRates() {
	s.epoch++
	s.links = s.links[:0]
	unfrozen := 0 // classes
	for _, f := range s.active {
		c := f.class
		if c.epoch == s.epoch {
			continue
		}
		c.epoch, c.rate = s.epoch, -1
		unfrozen++
		for h := 0; h < c.nhops; h++ {
			li := c.hopIdx[h]
			if s.linkEpoch[li] != s.epoch {
				s.linkEpoch[li] = s.epoch
				s.linkCapacity[li] = s.linkCapBase[li]
				s.linkClasses[li] = s.linkClasses[li][:0]
				s.linkUnfrozen[li] = 0
				s.linkPos[li] = len(s.links)
				s.links = append(s.links, li)
			}
			s.linkClasses[li] = append(s.linkClasses[li], c)
			s.linkUnfrozen[li] += c.count
		}
	}
	s.buildTree()
	for unfrozen > 0 {
		s.recomputeRounds++
		b, share := s.tree[1].pos, s.tree[1].share
		if math.IsInf(share, 1) {
			// Remaining classes are unconstrained (shouldn't happen: every
			// flow crosses at least one link); cap at trunk rate.
			for _, f := range s.active {
				if f.class.rate < 0 {
					f.class.rate = s.trunk
				}
			}
			break
		}
		// A single flow rides one physical trunk (ECMP hashing), so its
		// rate is capped at the trunk rate even on multi-trunk pairs.
		rate := share
		if rate > s.trunk {
			rate = s.trunk
		}
		s.touched = s.touched[:0]
		for _, c := range s.linkClasses[s.links[b]] {
			if c.rate >= 0 {
				continue
			}
			c.rate = rate
			unfrozen--
			for h := 0; h < c.nhops; h++ {
				li := c.hopIdx[h]
				capacity := s.linkCapacity[li]
				// Once clamped to zero a link stays there.
				for k := 0; k < c.count && capacity > 0; k++ {
					capacity -= rate
					if capacity < 0 {
						capacity = 0
					}
				}
				s.linkCapacity[li] = capacity
				s.linkUnfrozen[li] -= c.count
				s.touched = append(s.touched, s.linkPos[li])
			}
		}
		for _, p := range s.touched {
			s.replay(p)
		}
	}

	s.done, s.doneAt = nil, math.Inf(1)
	for _, f := range s.active {
		r := f.class.rate
		f.rate = r
		if r <= 0 {
			continue
		}
		if t := s.now + f.remaining/r; t < s.doneAt {
			s.done, s.doneAt = f, t
		}
	}
}

// match is one node of the tournament tree: the smaller share below it
// and the first-touch position of the link holding it.
type match struct {
	share float64
	pos   int32
}

// buildTree sizes the tournament to the links in first-touch order and
// plays it bottom-up.
//
//lwlint:hotpath
func (s *simEngine) buildTree() {
	w := 1
	for w < len(s.links) {
		w <<= 1
	}
	s.width = w
	for p := range s.links {
		s.tree[w+p] = match{s.share(p), int32(p)}
	}
	for p := len(s.links); p < w; p++ {
		s.tree[w+p] = match{math.Inf(1), int32(p)}
	}
	for i := w - 1; i > 0; i-- {
		s.tree[i] = s.winner(i)
	}
}

// replay recomputes the share of the link at position p and the matches
// above it, stopping at the first whose outcome did not change: nothing
// above that node depends on p.
//
//lwlint:hotpath
func (s *simEngine) replay(p int) {
	i := s.width + p
	s.tree[i].share = s.share(p)
	for i >>= 1; i > 0; i >>= 1 {
		m := s.winner(i)
		if m == s.tree[i] {
			return
		}
		s.tree[i] = m
	}
}

// share is the fair share of the link at position p: its residual
// capacity over its unfrozen flows, +Inf when it has none.
//
//lwlint:hotpath
func (s *simEngine) share(p int) float64 {
	li := s.links[p]
	if c := s.linkUnfrozen[li]; c > 0 {
		return s.linkCapacity[li] / float64(c)
	}
	return math.Inf(1)
}

// winner plays the match at inner node i: the smaller share of its two
// children, the left one (earlier in first-touch order) on a tie.
//
//lwlint:hotpath
func (s *simEngine) winner(i int) match {
	l, r := s.tree[2*i], s.tree[2*i+1]
	if r.share < l.share {
		return r
	}
	return l
}
