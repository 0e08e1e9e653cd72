package dcn

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

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
// and the last progressive filling is kept across events as a list of
// its rounds: an arrival or completion resumes filling at the first round
// it can change and keeps, in place, every later round it can show
// recurs, so only the rest run, and only the links the event reaches are
// brought up to date. All per-link state lives in flat arrays indexed by
// src*n+dst, and flow structs and whole engines are pooled. Every
// tie-break and floating-point accumulation order matches the original
// linear-scan/map implementation, so results are bit-identical (see
// golden_test.go for the pinned contract, and reference_test.go for the
// per-flow engine FuzzMaxMinRates holds this one to).

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
	class   *pathClass // the path the flow rides, whose rate it drains at
	size    float64
	started float64
	idx     int // position in the active slice
	slot    int // position in class.flows (and class.remaining)
}

// pathClass is one path — an ordered list of directed links — and the
// active flows riding it. Flows on one path meet the same links in every
// progressive-filling round, so they freeze in the same round at the same
// rate: max-min fills classes, not flows.
type pathClass struct {
	// hopIdx[:nhops] are the directed links used, as flat src*n+dst
	// indices (one hop for direct, two for transit).
	hopIdx [2]int
	nhops  int
	// id is the class's index in simEngine.classes.
	id int32
	// round is the slot of the logged round that froze the class (0 while
	// no round holds it), rate its fair share, and after[h] hop h's
	// residual capacity once it froze.
	round int32
	rate  float64
	after [2]float64
	// flows are the active flows on the path, in no particular order, and
	// remaining[i] is flows[i]'s bytes still to send.
	flows     []*flow
	remaining []float64
	// least is the slot of the flow with the fewest bytes left. The flows
	// drain by the same clamped subtraction, so it stays the least.
	least int
	// first is the lowest active index among the flows: classes are
	// ordered by it.
	first int
}

// round is one progressive-filling round: the bottleneck link and its
// share, and the classes it froze, frozen[start:end]. Rounds live in
// slots of simEngine.rounds, linked in log order through prev and next;
// slot 0 is the list's sentinel. A round's seq grows along the list, and
// stamp is the filling stamp of the last filling that marked a link one
// of its classes crosses.
type round struct {
	bottleneck int
	share      float64
	start, end int32
	prev, next int32
	seq, stamp uint64
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

// simEngine holds one simulation run's entire state. reset sizes the
// scratch for a run and keeps what an earlier run grew, so the loop runs
// allocation-free in steady state and Simulate reuses engines across runs
// (the fcts slice, the round log and the pooled per-link and per-class
// lists grow amortized-O(1) until they reach the high water mark).
type simEngine struct {
	top   *Topology
	n     int
	w     Workload
	cfg   SimConfig
	trunk float64
	rng   sim.Rand

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
	// a flow keeps a pointer to it. order holds the classes with active
	// flows, by first active index.
	classes []pathClass
	order   []*pathClass

	// Progressive-filling state, kept across events. linkClasses are the
	// classes crossing a link; links are the links in first-touch order
	// (classes in order, hops in order), the order bottleneck ties break
	// in, and linkPos is a link's place there. A link leaves links when
	// its last class goes. reordered is set when a change moved links
	// relative to each other, and moved is then the class other than the
	// changed one that leave moved (nil if none).
	linkClasses [][]*pathClass
	linkPos     []int
	links       []int
	reordered   bool
	moved       *pathClass
	// stamp numbers walks over the links and fillings. During a filling,
	// a link is marked when linkStamp holds the filling's stamp: its state
	// may differ from the last filling's, and linkCapacity and
	// linkUnfrozen hold its residual capacity and unfrozen flows at the
	// cursor. An unmarked link's entries there are stale and unread.
	stamp        uint64
	linkStamp    []uint64
	linkCapacity []float64
	linkUnfrozen []int

	// The round log: rounds[0] is the sentinel of the list of logged
	// rounds, spare the first free slot (linked through next), and
	// frozen holds the rounds' classes, with holes where dropped rounds'
	// were until compactFrozen packs the live ones (live of them) into
	// spareFrozen. nrounds counts the logged rounds and seq is the next
	// round sequence number.
	rounds      []round
	spare       int32
	frozen      []int32
	spareFrozen []int32
	live        int
	nrounds     int
	seq         uint64
	// During a filling, cursor is the first round of the last filling
	// still to keep or drop (0 once none is left); the rounds this filling
	// kept or ran have seq at least fillSeq.
	cursor  int32
	fillSeq uint64

	// tree is a tournament over the marked links' fair shares: leaf
	// tree[width+p] is links[p]'s share if the link is marked (+Inf if
	// not, once no unfrozen flow crosses it, and for the padding up to
	// the power-of-two width), every inner node holds its children's
	// smaller share (the left one on a tie), and tree[1] is the least.
	// Between fillings every leaf is +Inf.
	tree  []match
	width int

	// The earliest completion under the current rates (done is nil when
	// no active flow drains).
	done   *flow
	doneAt float64

	now            float64
	fcts           []float64
	completedBytes float64
	transit, total int

	// Telemetry accumulators, flushed to the package registry once per
	// run (per-event atomics would dominate the loop). recomputeRounds
	// counts the rounds a filling ran, reusedRounds the rounds it kept
	// from the last one, and linkUpdates the link states a filling rebuilt
	// plus the kept freezes it re-applied to a marked link.
	events, arrivals, completions, recomputeRounds, reusedRounds, linkUpdates, poolHits, poolMisses int64
}

// newSimEngine returns an engine reset to the run's inputs.
func newSimEngine(t *Topology, w Workload, cfg SimConfig) (*simEngine, error) {
	s := new(simEngine)
	return s, s.reset(t, w, cfg)
}

// reset validates the inputs and positions the engine at t=0 with the
// first arrival of every pair scheduled, reusing the arrays an earlier
// run grew. Every field a run reads is set here.
func (s *simEngine) reset(t *Topology, w Workload, cfg SimConfig) error {
	n := t.Blocks
	if len(w.Demand) != n {
		return fmt.Errorf("%w: demand %d blocks, topology %d", ErrMismatch, len(w.Demand), n)
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if !(cfg.TrunkBps > 0) || math.IsInf(cfg.TrunkBps, 1) {
		return fmt.Errorf("%w: trunk rate %g B/s", ErrDegenerate, cfg.TrunkBps)
	}
	if w.MeanFlowBytes <= 0 {
		return fmt.Errorf("%w: mean flow size %g bytes", ErrDegenerate, w.MeanFlowBytes)
	}
	if w.Duration <= 0 {
		return fmt.Errorf("%w: duration %g s", ErrDegenerate, w.Duration)
	}
	pairs, err := demandPairs(s.pairs, t, w)
	s.pairs = pairs
	if err != nil {
		return err
	}

	s.top, s.n, s.w, s.cfg, s.trunk = t, n, w, cfg, cfg.TrunkBps
	s.rng = *sim.NewRand(cfg.Seed)
	s.next = resize(s.next, len(pairs))
	s.heap = resize(s.heap, len(pairs))
	s.load = resize(s.load, n*n)
	clear(s.load)
	s.linkCapBase = resize(s.linkCapBase, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.linkCapBase[i*n+j] = float64(t.Links[i][j]) * cfg.TrunkBps
		}
	}
	s.free = append(s.free, s.active...)
	s.active = s.active[:0]
	s.classes = resize(s.classes, n*n*n)
	for k := range s.classes {
		c := &s.classes[k]
		*c = pathClass{id: int32(k), flows: c.flows[:0], remaining: c.remaining[:0]}
	}
	s.order = s.order[:0]
	s.linkClasses = resize(s.linkClasses, n*n)
	for i := range s.linkClasses {
		s.linkClasses[i] = s.linkClasses[i][:0]
	}
	s.linkPos = resize(s.linkPos, n*n)
	s.links = s.links[:0]
	s.reordered, s.moved = false, nil
	// linkStamp entries only ever hold stamps already passed.
	s.linkStamp = resize(s.linkStamp, n*n)
	s.linkCapacity = resize(s.linkCapacity, n*n)
	s.linkUnfrozen = resize(s.linkUnfrozen, n*n)
	s.rounds = append(s.rounds[:0], round{seq: math.MaxUint64})
	s.spare, s.frozen, s.live, s.nrounds, s.seq, s.cursor = 0, s.frozen[:0], 0, 0, 0, 0
	width := 1
	for width < n*n {
		width <<= 1
	}
	s.tree, s.width = resize(s.tree, 2*width), 0
	s.done, s.doneAt, s.now = nil, 0, 0
	s.fcts, s.completedBytes, s.transit, s.total = s.fcts[:0], 0, 0, 0
	s.events, s.arrivals, s.completions, s.recomputeRounds, s.reusedRounds, s.linkUpdates, s.poolHits, s.poolMisses = 0, 0, 0, 0, 0, 0, 0, 0

	for k := range s.pairs {
		s.next[k] = s.rng.ExpFloat64() / s.pairs[k].rate
		s.heap[k] = int32(k)
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	return nil
}

// resize returns xs with length n, reusing its array when it is large
// enough. The elements' values are whatever they were.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
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

// step advances the simulation by one event (arrival or completion) and
// reports whether the run continues: false once the horizon is reached.
//
//lwlint:hotpath
func (s *simEngine) step() bool {
	if s.now >= s.w.Duration {
		return false
	}
	// Earliest next event: the heap root is the earliest arrival; the
	// earliest completion (found by the last filling, the earliest-index
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
	// Drain all active flows to tNext, class by class: every flow of a
	// class loses the same rate*dt.
	dt := tNext - s.now
	for _, c := range s.order {
		drained := c.rate * dt
		for i, r := range c.remaining {
			r -= drained
			if r < 0 {
				r = 0
			}
			c.remaining[i] = r
		}
	}
	s.now = tNext
	s.events++

	if fDone != nil {
		s.completions++
		s.fcts = append(s.fcts, s.now-fDone.started)
		s.completedBytes += fDone.size
		c := fDone.class
		s.leave(fDone)
		s.free = append(s.free, fDone)
		s.maxMinRates(c, -1)
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
	s.join(f, c)
	s.maxMinRates(c, +1)
	return true
}

// join appends f, with all its bytes to send, to the active flows on
// class c. A class that gains its first flow is last in class order, so
// links it is the first to cross go to the end of the first-touch order.
//
//lwlint:hotpath
func (s *simEngine) join(f *flow, c *pathClass) {
	f.class = c
	f.idx = len(s.active)
	s.active = append(s.active, f)
	f.slot = len(c.flows)
	c.flows = append(c.flows, f)
	c.remaining = append(c.remaining, f.size)
	for h := 0; h < c.nhops; h++ {
		s.load[c.hopIdx[h]]++
	}
	if len(c.flows) > 1 {
		if f.size < c.remaining[c.least] {
			c.least = f.slot
		}
		return
	}
	c.first, c.least = f.idx, 0
	s.order = append(s.order, c)
	for h := 0; h < c.nhops; h++ {
		li := c.hopIdx[h]
		s.linkClasses[li] = append(s.linkClasses[li], c)
		if len(s.linkClasses[li]) > 1 {
			continue
		}
		s.linkPos[li] = len(s.links)
		s.links = append(s.links, li)
	}
}

// leave removes f from the active flows and from its class. The last
// active flow takes f's index, so f's class can move later in class
// order (or go), and the moved flow's class earlier; either can reorder
// the links, and the moved class is left in moved if they did.
//
//lwlint:hotpath
func (s *simEngine) leave(f *flow) {
	c := f.class
	for h := 0; h < c.nhops; h++ {
		s.load[c.hopIdx[h]]--
	}
	last := len(c.flows) - 1
	c.flows[f.slot], c.remaining[f.slot] = c.flows[last], c.remaining[last]
	c.flows[f.slot].slot = f.slot
	c.flows, c.remaining = c.flows[:last], c.remaining[:last]
	i := f.idx
	g := s.active[len(s.active)-1]
	s.active[i], g.idx = g, i
	s.active = s.active[:len(s.active)-1]

	moved := false
	if len(c.flows) == 0 {
		for k, o := range s.order {
			if o == c {
				s.order = append(s.order[:k], s.order[k+1:]...)
				break
			}
		}
		for h := 0; h < c.nhops; h++ {
			lc := s.linkClasses[c.hopIdx[h]]
			for k, o := range lc {
				if o == c {
					lc[k] = lc[len(lc)-1]
					s.linkClasses[c.hopIdx[h]] = lc[:len(lc)-1]
					break
				}
			}
		}
		moved = true
	} else {
		first := len(s.active)
		c.least = 0
		for k, o := range c.flows {
			if c.remaining[k] < c.remaining[c.least] {
				c.least = k
			}
			first = min(first, o.idx)
		}
		moved = first != c.first
		c.first = first
	}
	if d := g.class; g != f && i < d.first {
		d.first = i
		s.moved, moved = d, true
	}
	if moved {
		s.sortOrder()
		s.relay()
	}
	if !s.reordered {
		s.moved = nil
	}
}

// sortOrder restores class order after leave moved at most two classes.
//
//lwlint:hotpath
func (s *simEngine) sortOrder() {
	for i := 1; i < len(s.order); i++ {
		c := s.order[i]
		j := i
		for ; j > 0 && s.order[j-1].first > c.first; j-- {
			s.order[j] = s.order[j-1]
		}
		s.order[j] = c
	}
}

// relay recomputes the first-touch link order from the class order after
// leave moved or removed a class. Links whose last class went drop out;
// if the others change order, reordered is set.
//
//lwlint:hotpath
func (s *simEngine) relay() {
	s.stamp++
	p, last := 0, -1
	for _, c := range s.order {
		for h := 0; h < c.nhops; h++ {
			li := c.hopIdx[h]
			if s.linkStamp[li] == s.stamp {
				continue
			}
			s.linkStamp[li] = s.stamp
			if s.linkPos[li] < last {
				s.reordered = true
			}
			last = s.linkPos[li]
			s.linkPos[li], s.links[p] = p, li
			p++
		}
	}
	s.links = s.links[:p]
}

// result summarizes the run. It sorts fcts in place, after summing them
// in completion order for the mean, so it is read once per run.
func (s *simEngine) result() SimResult {
	var res SimResult
	res.CompletedFlows = len(s.fcts)
	if s.total > 0 {
		res.TransitFraction = float64(s.transit) / float64(s.total)
	}
	if len(s.fcts) > 0 {
		res.MeanFCT = sim.Mean(s.fcts)
		sort.Float64s(s.fcts)
		res.MedianFCT = sim.PercentileSorted(s.fcts, 50)
		res.P99FCT = sim.PercentileSorted(s.fcts, 99)
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
	reg.Counter("dcn_flowsim_reused_rounds_total").Add(s.reusedRounds)
	reg.Counter("dcn_flowsim_link_updates_total").Add(s.linkUpdates)
	reg.Counter("dcn_flowsim_pool_hits_total").Add(s.poolHits)
	reg.Counter("dcn_flowsim_pool_misses_total").Add(s.poolMisses)
	s.events, s.arrivals, s.completions = 0, 0, 0
	s.recomputeRounds, s.reusedRounds, s.linkUpdates, s.poolHits, s.poolMisses = 0, 0, 0, 0, 0
}

// engines holds idle engines, so the runs one worker makes reuse one
// engine's arrays.
var engines sync.Pool

// Simulate runs the flow-level simulation of the workload on the topology.
func Simulate(t *Topology, w Workload, cfg SimConfig) (SimResult, error) {
	s, _ := engines.Get().(*simEngine)
	if s == nil {
		s = new(simEngine)
	}
	defer engines.Put(s)
	if err := s.reset(t, w, cfg); err != nil {
		return SimResult{}, err
	}
	for s.step() {
	}
	s.flushMetrics()
	res := s.result()
	s.top, s.w = nil, Workload{} // the caller's inputs are not the pool's to keep
	return res, nil
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

// maxMinRates brings the max-min fair rates up to date after class c
// gained (delta = +1) or lost (delta = -1) a flow, and finds the earliest
// completion under them. It is progressive filling over path classes that
// resumes the last filling at the first round the change can alter, and
// it reproduces the per-flow engine bit for bit (reference_test.go keeps
// that engine; FuzzMaxMinRates compares them event by event):
//
//   - Links are ordered by first touch, classes in order of their first
//     active flow and hops in order: the per-flow engine's order, the
//     order bottleneck ties are broken in. A completion that reorders
//     links moves at most two classes, c and leave's moved class; only
//     their hops change place relative to other links, so resumeRound
//     tests and marks them beside c's.
//   - A link's unfrozen count sums its unfrozen classes' flow counts, so
//     every share is the same quotient of the same two numbers.
//   - A freezing class subtracts the round's rate from each of its hops
//     once per flow, each subtraction clamped at zero — never count×rate.
//     All subtractions of a round are the same value, so their order
//     across classes does not change the result.
//   - The tournament tree's left-on-tie pick is the old scan's strict-<
//     first minimum in first-touch order.
//   - Rounds before the resume round are kept by resumeRound's test, and
//     later rounds of the last filling are kept by fillRound's: each
//     picks the bottleneck and freezes the classes a filling from zero
//     would. A kept round stays in its slot and touches only its marked
//     links.
//
//lwlint:hotpath
func (s *simEngine) maxMinRates(c *pathClass, delta int) {
	s.stamp++ // a new filling, no link marked yet
	s.beginFilling(s.resumeRound(c, delta))
	for h := 0; h < c.nhops; h++ {
		s.markLink(c.hopIdx[h])
	}
	if d := s.moved; d != nil {
		for h := 0; h < d.nhops; h++ {
			s.markLink(d.hopIdx[h])
		}
	}
	if len(s.links) > s.width {
		s.buildTree()
	} else {
		s.replayHops(c)
		if d := s.moved; d != nil {
			s.replayHops(d)
		}
	}
	s.reordered, s.moved = false, nil
	s.finishFilling()
}

// beginFilling starts a filling that keeps the rounds before from and
// takes the rest as the cursor reaches them.
//
//lwlint:hotpath
func (s *simEngine) beginFilling(from int32) {
	s.cursor, s.fillSeq = from, s.seq
	s.reusedRounds += int64(s.nrounds) // less the rounds dropped on the way
}

// finishFilling keeps, drops and runs rounds until every class is frozen,
// then finds the earliest completion.
//
//lwlint:hotpath
func (s *simEngine) finishFilling() {
	for s.fillRound() {
	}
	s.earliestCompletion()
}

// resumeRound returns the first round of the last filling (its slot, 0
// for the end of the log) that class c's change by delta flows can alter.
// Round i stays as it was when its bottleneck is none of the tested hops
// and each tested hop h keeps a share cap_h(i)/unfrozen_h(i) above the
// round's share, or equal to it with h later in first-touch order: the
// bottleneck then still wins the round, c is not among the classes it
// freezes, and every link the round changes changes as before. The
// tested hops are c's and, after a reorder, the moved class's: no other
// link changed its state or its place relative to another. The round that
// froze c is the first whose bottleneck is one of c's hops, and a lost
// flow only raises the hops' shares, so unless links were reordered only
// a gained flow needs the hops' states walked forward from round 0.
//
//lwlint:hotpath
func (s *simEngine) resumeRound(c *pathClass, delta int) int32 {
	from := c.round
	if delta < 0 && !s.reordered {
		return from
	}
	var hops [4]int
	var capacity, share [4]float64
	var unfrozen [4]int
	n := 0
	for h := 0; h < c.nhops; h++ {
		hops[n] = c.hopIdx[h]
		n++
	}
	if d := s.moved; d != nil {
		for h := 0; h < d.nhops; h++ {
			if li := d.hopIdx[h]; li != hops[0] && (c.nhops == 1 || li != hops[1]) {
				hops[n] = li
				n++
			}
		}
	}
	// At round 0 a hop's capacity is whole and every flow on it unfrozen.
	// The rounds that change a hop are flagged, as marking it will.
	for k := 0; k < n; k++ {
		li := hops[k]
		capacity[k], unfrozen[k] = s.linkCapBase[li], int(s.load[li])
		share[k] = fairShare(capacity[k], unfrozen[k])
		for _, x := range s.linkClasses[li] {
			s.rounds[x.round].stamp = s.stamp
		}
	}
	for i := s.rounds[0].next; i != from; i = s.rounds[i].next {
		r := &s.rounds[i]
		for k := 0; k < n; k++ {
			if li := hops[k]; li == r.bottleneck || share[k] < r.share || share[k] == r.share && s.linkPos[li] < s.linkPos[r.bottleneck] {
				return i
			}
		}
		if r.stamp != s.stamp {
			continue
		}
		for _, id := range s.frozen[r.start:r.end] {
			x := &s.classes[id]
			for h := 0; h < x.nhops; h++ {
				for k := 0; k < n; k++ {
					if x.hopIdx[h] == hops[k] {
						capacity[k] = x.after[h]
						unfrozen[k] -= len(x.flows)
						share[k] = fairShare(capacity[k], unfrozen[k])
					}
				}
			}
		}
	}
	return from
}

// fairShare is a link's fair share at the given residual capacity and
// unfrozen flows: +Inf when it has none.
//
//lwlint:hotpath
func fairShare(capacity float64, unfrozen int) float64 {
	if unfrozen > 0 {
		return capacity / float64(unfrozen)
	}
	return math.Inf(1)
}

// isFrozen reports whether class x is frozen at the cursor: a round before
// the cursor, or one this filling kept or ran, holds it.
//
//lwlint:hotpath
func (s *simEngine) isFrozen(x *pathClass) bool {
	if x.round == 0 {
		return false
	}
	seq := s.rounds[x.round].seq
	return seq < s.rounds[s.cursor].seq || seq >= s.fillSeq
}

// markLink marks link li and computes its state at the cursor. Unmarked,
// the link is where the last filling had it: every round that changed it
// so far was kept, so its capacity is the least residual its frozen
// classes left (capacity only falls), and its unfrozen flows are those of
// its other classes. The rounds its classes froze in are flagged with
// the filling's stamp: they are the ones that change a marked link.
//
//lwlint:hotpath
func (s *simEngine) markLink(li int) {
	if s.linkStamp[li] == s.stamp {
		return
	}
	s.linkStamp[li] = s.stamp
	s.linkUpdates++
	capacity, unfrozen := s.linkCapBase[li], 0
	for _, x := range s.linkClasses[li] {
		s.rounds[x.round].stamp = s.stamp
		if !s.isFrozen(x) {
			unfrozen += len(x.flows)
			continue
		}
		h := 0
		if x.hopIdx[0] != li {
			h = 1
		}
		if x.after[h] < capacity {
			capacity = x.after[h]
		}
	}
	s.linkCapacity[li], s.linkUnfrozen[li] = capacity, unfrozen
}

// freeze subtracts class x's flows at rate from its hop h, a marked link,
// and records the residual.
//
//lwlint:hotpath
func (s *simEngine) freeze(x *pathClass, h int, rate float64) {
	li := x.hopIdx[h]
	x.after[h] = subtractFlows(s.linkCapacity[li], rate, len(x.flows))
	s.linkCapacity[li] = x.after[h]
	s.linkUnfrozen[li] -= len(x.flows)
}

// fillRound takes the next progressive-filling round and reports whether
// there was one. The links marked in this filling are in the tree. Every
// other link is where the last filling had it, so the first round at the
// cursor whose bottleneck is unmarked has the least share among them (the
// earliest in first-touch order on a tie). The round goes to whichever of
// that round and the tree's bottleneck is less: the logged round is kept,
// or the tree's bottleneck runs a new one. Logged rounds with a marked
// bottleneck are dropped on the way.
//
//lwlint:hotpath
func (s *simEngine) fillRound() bool {
	for s.cursor != 0 && s.linkStamp[s.rounds[s.cursor].bottleneck] == s.stamp {
		s.dropRound()
	}
	top := s.tree[1]
	if s.cursor != 0 {
		if r := &s.rounds[s.cursor]; r.share < top.share || r.share == top.share && s.linkPos[r.bottleneck] < int(top.pos) {
			s.keepRound()
			return true
		}
	}
	if math.IsInf(top.share, 1) {
		return false
	}
	s.newRound(top)
	return true
}

// newRound freezes the unfrozen classes on the tree's bottleneck at its
// share (capped at the trunk rate) in a round logged before the cursor,
// marking the links they cross.
//
//lwlint:hotpath
func (s *simEngine) newRound(top match) {
	s.recomputeRounds++
	b := s.links[top.pos]
	// A single flow rides one physical trunk (ECMP hashing), so its rate
	// is capped at the trunk rate even on multi-trunk pairs.
	rate := min(top.share, s.trunk)
	if len(s.frozen)+len(s.linkClasses[b]) > cap(s.frozen) && 2*s.live < len(s.frozen) {
		s.compactFrozen()
	}
	i := s.insertRound(b, top.share)
	start := len(s.frozen)
	for _, x := range s.linkClasses[b] {
		if s.isFrozen(x) {
			continue
		}
		for h := 0; h < x.nhops; h++ {
			s.markLink(x.hopIdx[h])
			s.freeze(x, h, rate)
		}
		x.rate, x.round = rate, i
		s.frozen = append(s.frozen, x.id)
	}
	s.rounds[i].end = int32(len(s.frozen))
	s.live += len(s.frozen) - start
	for _, id := range s.frozen[start:] {
		s.replayHops(&s.classes[id])
	}
}

// insertRound logs a round on bottleneck b at share before the cursor,
// its classes to be appended to frozen, and returns its slot.
//
//lwlint:hotpath
func (s *simEngine) insertRound(b int, share float64) int32 {
	i := s.spare
	if i != 0 {
		s.spare = s.rounds[i].next
	} else {
		i = int32(len(s.rounds))
		s.rounds = append(s.rounds, round{})
	}
	next := s.cursor
	prev := s.rounds[next].prev
	start := int32(len(s.frozen))
	s.rounds[i] = round{bottleneck: b, share: share, start: start, end: start, prev: prev, next: next, seq: s.seq}
	s.rounds[prev].next, s.rounds[next].prev = i, i
	s.seq++
	s.nrounds++
	return i
}

// keepRound keeps the logged round at the cursor as this filling's, in
// its slot. Its bottleneck is unmarked, so its classes are still the
// unfrozen ones on it and keep their rates; if it is flagged, a marked
// link it changes gets its capacity recomputed from where it stands.
//
//lwlint:hotpath
func (s *simEngine) keepRound() {
	r := &s.rounds[s.cursor]
	if r.stamp == s.stamp {
		rate := min(r.share, s.trunk)
		for _, id := range s.frozen[r.start:r.end] {
			x := &s.classes[id]
			for h := 0; h < x.nhops; h++ {
				if li := x.hopIdx[h]; s.linkStamp[li] == s.stamp {
					s.linkUpdates++
					s.freeze(x, h, rate)
					s.replayLink(li)
				}
			}
		}
	}
	r.seq = s.seq
	s.seq++
	s.cursor = r.next
}

// dropRound unlinks the logged round at the cursor, whose bottleneck is
// marked: its classes freeze in some later round, so the links they
// cross are marked and enter the tree at their current shares.
//
//lwlint:hotpath
func (s *simEngine) dropRound() {
	i := s.cursor
	r := s.rounds[i]
	for _, id := range s.frozen[r.start:r.end] {
		x := &s.classes[id]
		if x.round != i {
			continue // frozen again by a new round already
		}
		x.round = 0
		for h := 0; h < x.nhops; h++ {
			if li := x.hopIdx[h]; s.linkStamp[li] != s.stamp {
				s.markLink(li)
				s.replayLink(li)
			}
		}
	}
	s.rounds[r.prev].next, s.rounds[r.next].prev = r.next, r.prev
	s.rounds[i].next, s.spare = s.spare, i
	s.live -= int(r.end - r.start)
	s.nrounds--
	s.reusedRounds--
	s.cursor = r.next
}

// compactFrozen packs the logged rounds' classes into the spare buffer,
// in log order, and swaps the two.
func (s *simEngine) compactFrozen() {
	to := s.spareFrozen[:0]
	for i := s.rounds[0].next; i != 0; i = s.rounds[i].next {
		r := &s.rounds[i]
		start := len(to)
		to = append(to, s.frozen[r.start:r.end]...)
		r.start, r.end = int32(start), int32(len(to))
	}
	s.frozen, s.spareFrozen = to, s.frozen[:0]
}

// subtractFlows is a link's capacity after flows flows freeze at rate on
// it: one subtraction per flow, each clamped at zero (once there a link
// stays there), never flows×rate.
//
//lwlint:hotpath
func subtractFlows(capacity, rate float64, flows int) float64 {
	for k := 0; k < flows && capacity > 0; k++ {
		capacity -= rate
		if capacity < 0 {
			capacity = 0
		}
	}
	return capacity
}

// earliestCompletion finds the flow that drains first under the current
// rates, the earliest-index one on a tie. A class's flows finish in the
// order of their remaining bytes, so one division per class finds the
// time, and only the classes that reach it are scanned for the flow.
//
//lwlint:hotpath
func (s *simEngine) earliestCompletion() {
	s.done, s.doneAt = nil, math.Inf(1)
	var first *pathClass
	tied := false
	for _, c := range s.order {
		if c.rate <= 0 {
			continue
		}
		if t := s.now + c.remaining[c.least]/c.rate; t < s.doneAt {
			s.doneAt, first, tied = t, c, false
		} else if t == s.doneAt {
			tied = true
		}
	}
	if !tied {
		s.scanDone(first)
		return
	}
	for _, c := range s.order {
		if c.rate > 0 && s.now+c.remaining[c.least]/c.rate == s.doneAt {
			s.scanDone(c)
		}
	}
}

// scanDone makes the earliest-index flow of class c that drains at
// doneAt the earliest completion if it precedes the one found so far.
//
//lwlint:hotpath
func (s *simEngine) scanDone(c *pathClass) {
	if c == nil {
		return
	}
	for k, f := range c.flows {
		if s.now+c.remaining[k]/c.rate == s.doneAt && (s.done == nil || f.idx < s.done.idx) {
			s.done = f
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
// plays it bottom-up over the marked links' shares.
//
//lwlint:hotpath
func (s *simEngine) buildTree() {
	w := 1
	for w < len(s.links) {
		w <<= 1
	}
	s.width = w
	for p, li := range s.links {
		share := math.Inf(1)
		if s.linkStamp[li] == s.stamp {
			share = s.share(p)
		}
		s.tree[w+p] = match{share, int32(p)}
	}
	for p := len(s.links); p < w; p++ {
		s.tree[w+p] = match{math.Inf(1), int32(p)}
	}
	for i := w - 1; i > 0; i-- {
		s.tree[i] = s.winner(i)
	}
}

// replayLink replays the leaf of link li if the link is still in use.
//
//lwlint:hotpath
func (s *simEngine) replayLink(li int) {
	if len(s.linkClasses[li]) > 0 {
		s.replay(s.linkPos[li])
	}
}

// replayHops replays the leaves of class x's hops.
//
//lwlint:hotpath
func (s *simEngine) replayHops(x *pathClass) {
	for h := 0; h < x.nhops; h++ {
		s.replayLink(x.hopIdx[h])
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
	return fairShare(s.linkCapacity[li], s.linkUnfrozen[li])
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
