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
// and the class and per-link state of the last progressive filling is
// kept across events with a log of its rounds: an arrival or completion
// rolls the log back to the first round it can change, resumes filling
// there, and keeps every later round it can show recurs, so only the
// rest run. All per-link state lives in flat arrays indexed by src*n+dst,
// and flow structs are pooled. Every tie-break and floating-point
// accumulation order matches the original linear-scan/map
// implementation, so results are bit-identical (see golden_test.go for
// the pinned contract, and reference_test.go for the per-flow engine
// FuzzMaxMinRates holds this one to).

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
	// rate is the fair share of the last filling (-1 while unfrozen), and
	// round the index of the round that froze the class.
	rate  float64
	round int
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

// round is one progressive-filling round in a fillLog: the bottleneck
// link and its share, and the ends of the round's entries in frozen and
// undo.
type round struct {
	bottleneck         int
	share              float64
	frozenEnd, undoEnd int
}

// linkUndo is one freezing class's change to one of its hops: the link's
// residual capacity before and after it, and the flows it took off the
// link's unfrozen count. Undone newest first, a link's capacity ends at
// the oldest entry's, and its count gains every entry's flows.
type linkUndo struct {
	li            int
	before, after float64
	flows         int
}

// fillLog records progressive-filling rounds: round i froze
// frozen[frozenStart(i):rounds[i].frozenEnd] and changed the links in
// undo[undoStart(i):rounds[i].undoEnd].
type fillLog struct {
	rounds []round
	frozen []*pathClass
	undo   []linkUndo
}

//lwlint:hotpath
func (l *fillLog) frozenStart(i int) int {
	if i == 0 {
		return 0
	}
	return l.rounds[i-1].frozenEnd
}

//lwlint:hotpath
func (l *fillLog) undoStart(i int) int {
	if i == 0 {
		return 0
	}
	return l.rounds[i-1].undoEnd
}

//lwlint:hotpath
func (l *fillLog) truncate(rounds, frozen, undo int) {
	l.rounds, l.frozen, l.undo = l.rounds[:rounds], l.frozen[:frozen], l.undo[:undo]
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
// itself runs allocation-free in steady state (the fcts slice, the round
// logs and the pooled per-link and per-class lists grow amortized-O(1)
// until they reach the run's high water mark).
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
	// a flow keeps a pointer to it. order holds the classes with active
	// flows, by first active index.
	classes []pathClass
	order   []*pathClass

	// Progressive-filling state, kept across events. linkCapacity and
	// linkUnfrozen are each link's residual capacity and unfrozen flows
	// after the last round; linkClasses are the classes crossing it;
	// links are the links in first-touch order (classes in order, hops in
	// order), the order bottleneck ties break in, and linkPos is a link's
	// place there. A link leaves links when its last class goes.
	linkCapacity []float64
	linkUnfrozen []int
	linkClasses  [][]*pathClass
	linkPos      []int
	links        []int
	unfrozen     int // classes with active flows and no rate yet
	// reordered is set when a change moved links relative to each other:
	// the next filling resumes at round 0.
	reordered bool
	// stamp numbers walks over the links and fillings. During a filling,
	// a link is marked when linkStamp holds the filling's stamp: its state
	// may differ from the pending log's.
	stamp     uint64
	linkStamp []uint64

	// The log of the last filling (see fillLog), and the rounds of the one
	// before that the filling in progress has yet to keep or drop, from
	// pending round cursor on.
	fillLog
	pending fillLog
	cursor  int

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
	// from the last one.
	events, arrivals, completions, recomputeRounds, reusedRounds, poolHits, poolMisses int64
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
		rng:   sim.NewRand(cfg.Seed),
		pairs: pairs,
		next:  make([]float64, len(pairs)),
		heap:  make([]int32, len(pairs)),

		load:        make([]float64, n*n),
		linkCapBase: make([]float64, n*n),

		classes: make([]pathClass, n*n*n),

		linkCapacity: make([]float64, n*n),
		linkUnfrozen: make([]int, n*n),
		linkClasses:  make([][]*pathClass, n*n),
		linkPos:      make([]int, n*n),
		links:        make([]int, 0, n*n),
		linkStamp:    make([]uint64, n*n),
		tree:         make([]match, 2*width),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.linkCapBase[i*n+j] = float64(t.Links[i][j]) * cfg.TrunkBps
		}
	}
	for k := range s.pairs {
		s.next[k] = s.rng.ExpFloat64() / s.pairs[k].rate
		s.heap[k] = int32(k)
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	return s, nil
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
	c.first, c.least, c.rate = f.idx, 0, -1
	s.order = append(s.order, c)
	for h := 0; h < c.nhops; h++ {
		li := c.hopIdx[h]
		s.linkClasses[li] = append(s.linkClasses[li], c)
		if len(s.linkClasses[li]) > 1 {
			continue
		}
		s.linkCapacity[li], s.linkUnfrozen[li] = s.linkCapBase[li], 0
		s.linkPos[li] = len(s.links)
		s.links = append(s.links, li)
	}
}

// leave removes f from the active flows and from its class. The last
// active flow takes f's index, so f's class can move later in class
// order (or go), and the moved flow's class earlier; either can reorder
// the links.
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
		moved = true
	}
	if moved {
		s.sortOrder()
		s.relay()
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
	reg.Counter("dcn_flowsim_reused_rounds_total").Add(s.reusedRounds)
	reg.Counter("dcn_flowsim_pool_hits_total").Add(s.poolHits)
	reg.Counter("dcn_flowsim_pool_misses_total").Add(s.poolMisses)
	s.events, s.arrivals, s.completions = 0, 0, 0
	s.recomputeRounds, s.reusedRounds, s.poolHits, s.poolMisses = 0, 0, 0, 0
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

// maxMinRates brings the max-min fair rates up to date after class c
// gained (delta = +1) or lost (delta = -1) a flow, and finds the earliest
// completion under them. It is progressive filling over path classes that resumes the last filling at the first
// round the change can alter, and it reproduces the per-flow engine bit
// for bit (reference_test.go keeps that engine; FuzzMaxMinRates compares
// them event by event):
//
//   - Links are ordered by first touch, classes in order of their first
//     active flow and hops in order: the per-flow engine's order, the
//     order bottleneck ties are broken in. If a change reorders them, the
//     filling resumes at round 0 and reuses nothing.
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
//     would.
//
//lwlint:hotpath
func (s *simEngine) maxMinRates(c *pathClass, delta int) {
	from := 0
	if !s.reordered {
		from = s.resumeRound(c, delta)
	}
	s.rollback(from)
	s.stamp++ // every link is back on the log
	if s.reordered {
		s.pending.truncate(0, 0, 0)
		for _, li := range s.links {
			s.linkStamp[li] = s.stamp
		}
	}
	if delta > 0 && len(c.flows) == 1 {
		s.unfrozen++
	}
	for h := 0; h < c.nhops; h++ {
		s.linkUnfrozen[c.hopIdx[h]] += delta
		s.linkStamp[c.hopIdx[h]] = s.stamp
	}
	if s.reordered || len(s.links) > s.width {
		s.buildTree()
	} else {
		for h := 0; h < c.nhops; h++ {
			s.replayLink(c.hopIdx[h])
		}
	}
	s.reordered = false
	s.reusedRounds += int64(from)
	for s.unfrozen > 0 {
		s.fillRound()
	}
	s.earliestCompletion()
}

// resumeRound returns the first round of the last filling that class c's
// change by delta flows can alter. Round i stays as it was when its
// bottleneck is none of c's hops and each hop h keeps a share
// cap_h(i)/(unfrozen_h(i)+delta) above the round's share, or equal to it
// with h later in first-touch order: the bottleneck then still wins the
// round, c is not among the classes it freezes, and every link the round
// changes changes as before. The round that froze c is the first whose
// bottleneck is one of c's hops, and a lost flow only raises the hops'
// shares, so only a gained flow needs the hops' states walked forward
// from round 0 through the log.
//
//lwlint:hotpath
func (s *simEngine) resumeRound(c *pathClass, delta int) int {
	from := len(s.rounds)
	if c.rate >= 0 {
		from = c.round
	}
	if delta < 0 {
		return from
	}
	// At round 0 a hop's capacity is whole and every flow on it, but the
	// new one, is unfrozen.
	var capacity [2]float64
	var unfrozen [2]int
	for h := 0; h < c.nhops; h++ {
		li := c.hopIdx[h]
		capacity[h], unfrozen[h] = s.linkCapBase[li], int(s.load[li])-delta
	}
	k := 0
	for i, r := range s.rounds[:from] {
		for h := 0; h < c.nhops; h++ {
			li := c.hopIdx[h]
			if li == r.bottleneck || s.undercuts(li, capacity[h], unfrozen[h]+delta, r) {
				return i
			}
		}
		for ; k < r.undoEnd; k++ {
			u := s.undo[k]
			for h := 0; h < c.nhops; h++ {
				if u.li == c.hopIdx[h] {
					capacity[h] = u.after
					unfrozen[h] -= u.flows
				}
			}
		}
	}
	return from
}

// undercuts reports whether link li, at the given capacity and unfrozen
// flows, would win round r from its bottleneck.
//
//lwlint:hotpath
func (s *simEngine) undercuts(li int, capacity float64, unfrozen int, r round) bool {
	if unfrozen <= 0 {
		return false
	}
	share := capacity / float64(unfrozen)
	return share < r.share || share == r.share && s.linkPos[li] < s.linkPos[r.bottleneck]
}

// rollback undoes the rounds from round from on and moves them to the
// pending log: the links they changed get their old capacity and
// unfrozen flows back, and the classes they froze are unfrozen.
//
//lwlint:hotpath
func (s *simEngine) rollback(from int) {
	undoEnd, frozenEnd := 0, 0
	if from > 0 {
		undoEnd, frozenEnd = s.rounds[from-1].undoEnd, s.rounds[from-1].frozenEnd
	}
	p := &s.pending
	p.rounds = append(p.rounds[:0], s.rounds[from:]...)
	for i := range p.rounds {
		p.rounds[i].frozenEnd -= frozenEnd
		p.rounds[i].undoEnd -= undoEnd
	}
	p.frozen = append(p.frozen[:0], s.frozen[frozenEnd:]...)
	p.undo = append(p.undo[:0], s.undo[undoEnd:]...)
	s.cursor = 0
	for k := len(s.undo) - 1; k >= undoEnd; k-- {
		u := s.undo[k]
		s.linkCapacity[u.li] = u.before
		s.linkUnfrozen[u.li] += u.flows
	}
	for _, c := range s.frozen[frozenEnd:] {
		c.rate = -1
		if len(c.flows) > 0 {
			s.unfrozen++
		}
	}
	s.truncate(from, frozenEnd, undoEnd)
}

// fillRound runs one progressive-filling round and logs it. The links
// marked in this filling are in the tree. Every other link is where the
// pending log has it, so the first pending round whose bottleneck is
// unmarked has the least share among them (the earliest in first-touch
// order on a tie). The round goes to whichever of that round and the
// tree's bottleneck is less: the pending round is kept, or the tree's
// bottleneck runs a new one. Pending rounds with a marked bottleneck are
// dropped on the way.
//
//lwlint:hotpath
func (s *simEngine) fillRound() {
	p := &s.pending
	for s.cursor < len(p.rounds) && s.linkStamp[p.rounds[s.cursor].bottleneck] == s.stamp {
		s.dropRound()
	}
	top := s.tree[1]
	if s.cursor < len(p.rounds) {
		if r := p.rounds[s.cursor]; r.share < top.share || r.share == top.share && s.linkPos[r.bottleneck] < int(top.pos) {
			s.keepRound(r)
			return
		}
	}
	s.newRound(top)
}

// newRound freezes the unfrozen classes on the tree's bottleneck at its
// share (capped at the trunk rate), marking the links they cross.
//
//lwlint:hotpath
func (s *simEngine) newRound(top match) {
	s.recomputeRounds++
	b := s.links[top.pos]
	// A single flow rides one physical trunk (ECMP hashing), so its rate
	// is capped at the trunk rate even on multi-trunk pairs.
	rate := top.share
	if rate > s.trunk {
		rate = s.trunk
	}
	start := len(s.undo)
	for _, c := range s.linkClasses[b] {
		if c.rate >= 0 {
			continue
		}
		c.rate, c.round = rate, len(s.rounds)
		s.unfrozen--
		s.frozen = append(s.frozen, c)
		for h := 0; h < c.nhops; h++ {
			li := c.hopIdx[h]
			u := linkUndo{li: li, before: s.linkCapacity[li], flows: len(c.flows)}
			u.after = subtractFlows(u.before, rate, u.flows)
			s.undo = append(s.undo, u)
			s.linkCapacity[li] = u.after
			s.linkUnfrozen[li] -= u.flows
			s.linkStamp[li] = s.stamp
		}
	}
	s.rounds = append(s.rounds, round{bottleneck: b, share: top.share, frozenEnd: len(s.frozen), undoEnd: len(s.undo)})
	for _, u := range s.undo[start:] {
		s.replayLink(u.li)
	}
}

// keepRound applies pending round r, the one at the cursor, as this
// filling's. Its bottleneck is unmarked, so its classes are still the
// unfrozen ones on it; a marked link it changes gets its capacity
// recomputed from where it stands.
//
//lwlint:hotpath
func (s *simEngine) keepRound(r round) {
	p := &s.pending
	s.reusedRounds++
	rate := r.share
	if rate > s.trunk {
		rate = s.trunk
	}
	for _, c := range p.frozen[p.frozenStart(s.cursor):r.frozenEnd] {
		c.rate, c.round = rate, len(s.rounds)
		s.unfrozen--
		s.frozen = append(s.frozen, c)
	}
	for _, u := range p.undo[p.undoStart(s.cursor):r.undoEnd] {
		marked := s.linkStamp[u.li] == s.stamp
		if marked {
			u.before = s.linkCapacity[u.li]
			u.after = subtractFlows(u.before, rate, u.flows)
		}
		s.undo = append(s.undo, u)
		s.linkCapacity[u.li] = u.after
		s.linkUnfrozen[u.li] -= u.flows
		if marked {
			s.replayLink(u.li)
		}
	}
	s.rounds = append(s.rounds, round{bottleneck: r.bottleneck, share: r.share, frozenEnd: len(s.frozen), undoEnd: len(s.undo)})
	s.cursor++
}

// dropRound skips the pending round at the cursor, whose bottleneck is
// marked: its classes freeze in some later round, so the links it would
// have changed are marked and enter the tree at their current shares.
//
//lwlint:hotpath
func (s *simEngine) dropRound() {
	p := &s.pending
	for _, u := range p.undo[p.undoStart(s.cursor):p.rounds[s.cursor].undoEnd] {
		if s.linkStamp[u.li] != s.stamp {
			s.linkStamp[u.li] = s.stamp
			s.replayLink(u.li)
		}
	}
	s.cursor++
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
