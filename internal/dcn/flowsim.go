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
// recurs, so only the rest run and only the links the event reaches are
// brought up to date; a round's bottleneck is the least share among those
// links, found by scanning them. A completion re-places only the classes
// it moved. All per-link state lives in flat arrays indexed by src*n+dst,
// the active flows' bytes and rates in flat arrays the drain sweeps, and
// flow structs and whole engines are pooled. Every tie-break and
// floating-point accumulation order matches the original linear-scan/map
// implementation, so results are bit-identical (see golden_test.go for
// the pinned contract, and reference_test.go for the per-flow engine
// FuzzMaxMinRates holds this one to). This file is the event loop —
// arrivals, the drain and completions — and fill.go the exact filler.

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
	idx     int // position in the active slice (and in remain and frate)
	slot    int // position in class.flows
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
	// flows are the active flows on the path, in no particular order.
	flows []*flow
	// least is the active index of the flow with the fewest bytes left.
	// The flows drain by the same clamped subtraction, so it stays the
	// least.
	least int
	// first is the lowest active index among the flows: classes are
	// ordered by it.
	first int
}

// ErrMismatch is returned when workload and topology disagree on size.
var ErrMismatch = errors.New("dcn: workload does not match topology")

// ErrDegenerate is returned for inputs that would otherwise surface deep
// inside the simulation as NaN/Inf fair-share rates, divide-by-zero, or
// flows that never drain: a non-positive or non-finite trunk rate, mean
// flow size or duration, non-finite or negative demand
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

	// active are the flows in flight; remain[i] is active[i]'s bytes still
	// to send and frate[i] its class's rate, so the drain is one sweep.
	active []*flow
	remain []float64
	frate  []float64
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
	// in, linkPos is a link's place there, and linkKey its sort key there,
	// 2·first+hop of its first class. A link leaves links when its last
	// class goes. reordered is set when a change moved links relative to
	// each other, and moved is then the class other than the changed one
	// that leave moved (nil if none). placed[:nplaced] are the links leave
	// re-placed, with their keys before it.
	linkClasses [][]*pathClass
	linkPos     []int
	linkKey     []int
	links       []int
	reordered   bool
	moved       *pathClass
	placed      [4]placedLink
	nplaced     int
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

	// marked are the links this filling marked that may still have an
	// unfrozen flow, in no particular order; bottleneck drops the others.
	// Between fillings it is empty.
	marked []int

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
	// from the last one, walkedRounds the logged rounds its cursor reached
	// (kept or dropped), and linkUpdates the link states a filling rebuilt
	// plus the kept freezes it re-applied to a marked link.
	events, arrivals, completions, recomputeRounds, reusedRounds, walkedRounds, linkUpdates, poolHits, poolMisses int64
}

// placedLink is a link leave re-placed and its key before leave.
type placedLink struct{ li, key int }

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
	if !(w.MeanFlowBytes > 0) || math.IsInf(w.MeanFlowBytes, 1) {
		return fmt.Errorf("%w: mean flow size %g bytes", ErrDegenerate, w.MeanFlowBytes)
	}
	if !(w.Duration > 0) || math.IsInf(w.Duration, 1) {
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
	s.active, s.remain, s.frate = s.active[:0], s.remain[:0], s.frate[:0]
	s.classes = resize(s.classes, n*n*n)
	for k := range s.classes {
		c := &s.classes[k]
		*c = pathClass{id: int32(k), flows: c.flows[:0]}
	}
	s.order = s.order[:0]
	s.linkClasses = resize(s.linkClasses, n*n)
	for i := range s.linkClasses {
		s.linkClasses[i] = s.linkClasses[i][:0]
	}
	s.linkPos = resize(s.linkPos, n*n)
	s.linkKey = resize(s.linkKey, n*n)
	s.links = s.links[:0]
	s.reordered, s.moved = false, nil
	// linkStamp entries only ever hold stamps already passed.
	s.linkStamp = resize(s.linkStamp, n*n)
	s.linkCapacity = resize(s.linkCapacity, n*n)
	s.linkUnfrozen = resize(s.linkUnfrozen, n*n)
	s.rounds = append(s.rounds[:0], round{seq: math.MaxUint64})
	s.spare, s.frozen, s.live, s.nrounds, s.seq, s.cursor = 0, s.frozen[:0], 0, 0, 0, 0
	s.marked = resize(s.marked, n*n)[:0] // a link is marked at most once
	s.done, s.doneAt, s.now = nil, 0, 0
	s.fcts, s.completedBytes, s.transit, s.total = s.fcts[:0], 0, 0, 0
	s.events, s.arrivals, s.completions, s.recomputeRounds, s.reusedRounds, s.walkedRounds, s.linkUpdates, s.poolHits, s.poolMisses = 0, 0, 0, 0, 0, 0, 0, 0, 0

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
	// Drain all active flows to tNext: each loses its class's rate*dt,
	// rounded before the subtraction (the conversion forbids fusing them).
	dt := tNext - s.now
	remain := s.remain
	frate := s.frate[:len(remain)]
	for i, r := range remain {
		r -= float64(frate[i] * dt)
		if r < 0 {
			r = 0
		}
		remain[i] = r
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
// f's rate is set when the filling re-freezes c, as it must: c's hops are
// marked and c is unfrozen, so only a new round can freeze it.
//
//lwlint:hotpath
func (s *simEngine) join(f *flow, c *pathClass) {
	f.class = c
	f.idx = len(s.active)
	s.active = append(s.active, f)
	s.remain = append(s.remain, f.size)
	s.frate = append(s.frate, 0)
	f.slot = len(c.flows)
	c.flows = append(c.flows, f)
	for h := 0; h < c.nhops; h++ {
		s.load[c.hopIdx[h]]++
	}
	if len(c.flows) > 1 {
		if f.size < s.remain[c.least] {
			c.least = f.idx
		}
		return
	}
	c.first, c.least = f.idx, f.idx
	s.order = append(s.order, c)
	for h := 0; h < c.nhops; h++ {
		li := c.hopIdx[h]
		s.linkClasses[li] = append(s.linkClasses[li], c)
		if len(s.linkClasses[li]) > 1 {
			continue
		}
		s.linkPos[li], s.linkKey[li] = len(s.links), 2*c.first+h
		s.links = append(s.links, li)
	}
}

// leave removes f from the active flows and from its class. The last
// active flow takes f's index, so f's class can move later in class
// order (or go), and the moved flow's class earlier: leave re-places
// those two classes and their hops, and if other links changed order
// relative to them, sets reordered and leaves the moved class in moved.
//
//lwlint:hotpath
func (s *simEngine) leave(f *flow) {
	c := f.class
	for h := 0; h < c.nhops; h++ {
		s.load[c.hopIdx[h]]--
	}
	last := len(c.flows) - 1
	c.flows[f.slot] = c.flows[last]
	c.flows[f.slot].slot = f.slot
	c.flows = c.flows[:last]
	i, end := f.idx, len(s.active)-1
	g := s.active[end]
	s.active[i], g.idx = g, i
	s.remain[i], s.frate[i] = s.remain[end], s.frate[end]
	s.active, s.remain, s.frate = s.active[:end], s.remain[:end], s.frate[:end]

	s.nplaced = 0
	old := c.first
	if len(c.flows) == 0 {
		p := s.classAt(old)
		s.order = append(s.order[:p], s.order[p+1:]...)
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
	} else {
		first := len(s.active)
		c.least = c.flows[0].idx
		for _, o := range c.flows {
			if s.remain[o.idx] < s.remain[c.least] {
				c.least = o.idx
			}
			first = min(first, o.idx)
		}
		if first != old {
			s.placeClass(c, first)
		}
	}
	if len(c.flows) == 0 || c.first != old {
		// c's hops whose first class it was take their next class's key.
		for h := 0; h < c.nhops; h++ {
			li := c.hopIdx[h]
			if len(s.linkClasses[li]) == 0 {
				s.removeLink(li)
			} else if s.linkKey[li] == 2*old+h {
				s.placeLink(li, s.firstKey(li))
			}
		}
	}
	if d := g.class; g != f {
		if d.least == end {
			d.least = i
		}
		if i < d.first {
			s.placeClass(d, i)
			for h := 0; h < d.nhops; h++ {
				if li := d.hopIdx[h]; 2*i+h < s.linkKey[li] {
					s.placeLink(li, 2*i+h)
				}
			}
			s.moved = d
		}
	}
	s.reordered = s.placedOutOfOrder()
	if !s.reordered {
		s.moved = nil
	}
}

// classAt returns the place in class order of the class whose first
// active index is first, or where one would go.
//
//lwlint:hotpath
func (s *simEngine) classAt(first int) int {
	lo, hi := 0, len(s.order)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.order[m].first < first {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// placeClass gives class x, in class order, the first active index first
// and moves it to its place by it.
//
//lwlint:hotpath
func (s *simEngine) placeClass(x *pathClass, first int) {
	p, q := s.classAt(x.first), s.classAt(first)
	if q > p {
		q-- // x itself is before first
		copy(s.order[p:q], s.order[p+1:q+1])
	} else {
		copy(s.order[q+1:p+1], s.order[q:p])
	}
	x.first = first
	s.order[q] = x
}

// firstKey is link li's sort key in first-touch order, from its classes'
// first active indices.
//
//lwlint:hotpath
func (s *simEngine) firstKey(li int) int {
	key := math.MaxInt
	for _, x := range s.linkClasses[li] {
		h := 0
		if x.hopIdx[0] != li {
			h = 1
		}
		key = min(key, 2*x.first+h)
	}
	return key
}

// linkAt returns the place in first-touch order of the link whose key is
// key, or where one would go.
//
//lwlint:hotpath
func (s *simEngine) linkAt(key int) int {
	lo, hi := 0, len(s.links)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.linkKey[s.links[m]] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// placeLink gives link li the sort key key and moves it to its place in
// first-touch order by it, noting its key before leave.
//
//lwlint:hotpath
func (s *simEngine) placeLink(li, key int) {
	k := 0
	for k < s.nplaced && s.placed[k].li != li {
		k++
	}
	if k == s.nplaced {
		s.placed[k] = placedLink{li, s.linkKey[li]}
		s.nplaced++
	}
	p, q := s.linkPos[li], s.linkAt(key)
	if q > p {
		q-- // li itself is before key
		for ; p < q; p++ {
			s.links[p] = s.links[p+1]
			s.linkPos[s.links[p]] = p
		}
	} else {
		for ; p > q; p-- {
			s.links[p] = s.links[p-1]
			s.linkPos[s.links[p]] = p
		}
	}
	s.links[q], s.linkPos[li], s.linkKey[li] = li, q, key
}

// removeLink takes link li, which no class crosses any more, out of
// first-touch order; the others keep theirs.
//
//lwlint:hotpath
func (s *simEngine) removeLink(li int) {
	p := s.linkPos[li]
	s.links = append(s.links[:p], s.links[p+1:]...)
	for ; p < len(s.links); p++ {
		s.linkPos[s.links[p]] = p
	}
}

// placedOutOfOrder reports whether the links leave re-placed now stand
// out of their order before it: the others kept their keys, so the links
// are in their old order unless a re-placed one and a neighbour of it
// are not.
//
//lwlint:hotpath
func (s *simEngine) placedOutOfOrder() bool {
	for k := 0; k < s.nplaced; k++ {
		p, key := s.linkPos[s.placed[k].li], s.placed[k].key
		if p > 0 && s.oldKey(s.links[p-1]) > key || p+1 < len(s.links) && s.oldKey(s.links[p+1]) < key {
			return true
		}
	}
	return false
}

// oldKey is link li's sort key before leave.
//
//lwlint:hotpath
func (s *simEngine) oldKey(li int) int {
	for k := 0; k < s.nplaced; k++ {
		if s.placed[k].li == li {
			return s.placed[k].key
		}
	}
	return s.linkKey[li]
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
	reg.Counter("dcn_flowsim_rounds_walked_total").Add(s.walkedRounds)
	reg.Counter("dcn_flowsim_link_updates_total").Add(s.linkUpdates)
	reg.Counter("dcn_flowsim_pool_hits_total").Add(s.poolHits)
	reg.Counter("dcn_flowsim_pool_misses_total").Add(s.poolMisses)
	s.events, s.arrivals, s.completions = 0, 0, 0
	s.recomputeRounds, s.reusedRounds, s.walkedRounds, s.linkUpdates, s.poolHits, s.poolMisses = 0, 0, 0, 0, 0, 0
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
		if t := s.now + s.remain[c.least]/c.rate; t < s.doneAt {
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
		if c.rate > 0 && s.now+s.remain[c.least]/c.rate == s.doneAt {
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
	for _, f := range c.flows {
		if s.now+s.remain[f.idx]/c.rate == s.doneAt && (s.done == nil || f.idx < s.done.idx) {
			s.done = f
		}
	}
}
