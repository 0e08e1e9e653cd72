package dcn

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The per-flow max-min engine that progressive filling over path classes
// replaced, kept as the oracle FuzzMaxMinRates holds the engine to. It
// shares the simEngine's arrival calendar, routing and result accounting
// (code the path-class rewrite did not touch) and keeps its own flows and
// its own per-link flow lists; step and maxMinRates below are the old
// bodies, changed only to use refFlow.

type refFlow struct {
	hopIdx    [2]int
	nhops     int
	size      float64
	remaining float64
	started   float64
	rate      float64
	idx       int
}

type refEngine struct {
	*simEngine
	active []*refFlow

	epoch        uint64
	linkEpoch    []uint64
	linkCapacity []float64
	linkFlows    [][]*refFlow
	linkUnfrozen []int
	order        []int
}

func newRefEngine(t *Topology, w Workload, cfg SimConfig) (*refEngine, error) {
	s, err := newSimEngine(t, w, cfg)
	if err != nil {
		return nil, err
	}
	n := s.n
	return &refEngine{
		simEngine:    s,
		linkEpoch:    make([]uint64, n*n),
		linkCapacity: make([]float64, n*n),
		linkFlows:    make([][]*refFlow, n*n),
		linkUnfrozen: make([]int, n*n),
	}, nil
}

func (s *refEngine) removeActive(f *refFlow) {
	last := len(s.active) - 1
	s.active[f.idx] = s.active[last]
	s.active[f.idx].idx = f.idx
	s.active = s.active[:last]
}

func (s *refEngine) step() bool {
	if s.now >= s.w.Duration {
		return false
	}
	kNext := int(s.heap[0])
	tNext := s.next[kNext]
	var fDone *refFlow
	for _, f := range s.active {
		if f.rate <= 0 {
			continue
		}
		done := s.now + f.remaining/f.rate
		if done < tNext {
			tNext, kNext, fDone = done, -1, f
		}
	}
	if tNext > s.w.Duration {
		return false
	}
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
		for h := 0; h < fDone.nhops; h++ {
			s.load[fDone.hopIdx[h]]--
		}
		s.removeActive(fDone)
		s.maxMinRates()
		return true
	}

	s.arrivals++
	p := s.pairs[kNext]
	s.next[kNext] = s.now + s.rng.ExpFloat64()/p.rate
	s.siftDown(0)
	f := &refFlow{started: s.now}
	f.size = s.rng.ExpFloat64() * s.w.MeanFlowBytes
	f.remaining = f.size
	via, transit := s.choosePath(p.i, p.j)
	if transit {
		f.nhops = 2
		f.hopIdx[0] = p.i*s.n + via
		f.hopIdx[1] = via*s.n + p.j
	} else {
		f.nhops = 1
		f.hopIdx[0] = p.i*s.n + p.j
	}
	s.total++
	if transit {
		s.transit++
	}
	for h := 0; h < f.nhops; h++ {
		s.load[f.hopIdx[h]]++
	}
	f.idx = len(s.active)
	s.active = append(s.active, f)
	s.maxMinRates()
	return true
}

func (s *refEngine) maxMinRates() {
	s.epoch++
	s.order = s.order[:0]
	for _, f := range s.active {
		f.rate = -1
		for h := 0; h < f.nhops; h++ {
			li := f.hopIdx[h]
			if s.linkEpoch[li] != s.epoch {
				s.linkEpoch[li] = s.epoch
				s.linkCapacity[li] = s.linkCapBase[li]
				s.linkFlows[li] = s.linkFlows[li][:0]
				s.linkUnfrozen[li] = 0
				s.order = append(s.order, li)
			}
			s.linkFlows[li] = append(s.linkFlows[li], f)
			s.linkUnfrozen[li]++
		}
	}
	unfrozen := len(s.active)
	for unfrozen > 0 {
		s.recomputeRounds++
		bottleneck := -1
		share := math.Inf(1)
		for _, li := range s.order {
			c := s.linkUnfrozen[li]
			if c == 0 {
				continue
			}
			if sh := s.linkCapacity[li] / float64(c); sh < share {
				share, bottleneck = sh, li
			}
		}
		if bottleneck < 0 {
			for _, f := range s.active {
				if f.rate < 0 {
					f.rate = s.trunk
					unfrozen--
				}
			}
			break
		}
		for _, f := range s.linkFlows[bottleneck] {
			if f.rate >= 0 {
				continue
			}
			rate := share
			if rate > s.trunk {
				rate = s.trunk
			}
			f.rate = rate
			unfrozen--
			for h := 0; h < f.nhops; h++ {
				li := f.hopIdx[h]
				s.linkCapacity[li] -= rate
				if s.linkCapacity[li] < 0 {
					s.linkCapacity[li] = 0
				}
				s.linkUnfrozen[li]--
			}
		}
	}
}

// fuzzSim decodes a flow-simulation input from fuzz bytes: 2–8 blocks,
// 0–3 trunks per block pair, and per routable ordered pair either no
// demand or a half-trunk multiple. So few distinct capacities and demands
// make exact fair-share ties — the bottleneck tie-break — common. Bytes
// past the end read as zero.
func fuzzSim(data []byte) (*Topology, Workload, SimConfig) {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	n := 2 + next()%7
	top := newTopology(n, 3*(n-1))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := next() % 4
			top.Links[i][j], top.Links[j][i] = k, k
		}
	}
	cfg := DefaultSimConfig()
	cfg.MaxTransit = next() % 5
	cfg.Seed = uint64(next())
	w := Workload{
		Demand:        make([][]float64, n),
		MeanFlowBytes: 1e9,
		Duration:      0.05 * float64(1+next()%4),
	}
	for i := range w.Demand {
		w.Demand[i] = make([]float64, n)
		for j := range w.Demand[i] {
			if b := next(); i != j && b%3 != 0 && top.Routable(i, j) {
				w.Demand[i][j] = float64(b%4) * 0.5 * cfg.TrunkBps
			}
		}
	}
	return top, w, cfg
}

// FuzzMaxMinRates steps the path-class engine and the per-flow reference
// in lockstep on fuzz-decoded fabrics and requires them to agree bit for
// bit after every event: the clock, the completions so far, the rounds
// (run plus kept against the reference's), and every active flow's path,
// rate and remaining bytes; then the final SimResult. The seeds under
// testdata/fuzz/FuzzMaxMinRates are tie-heavy fabrics (uniform meshes of
// one and two trunks, a star whose leaf pairs all ride transit, a ring),
// the three TestFillingResumeSeeds checks, and a reorder whose filling
// resumes at round 0.
func FuzzMaxMinRates(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		top, w, cfg := fuzzSim(data)
		s, err := newSimEngine(top, w, cfg)
		r, rerr := newRefEngine(top, w, cfg)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("engine err %v, reference err %v", err, rerr)
		}
		if err != nil {
			return
		}
		for ev := 0; ; ev++ {
			more, refMore := s.step(), r.step()
			if more != refMore {
				t.Fatalf("event %d: engine continues=%t, reference %t", ev, more, refMore)
			}
			assertSameState(t, ev, s, r)
			if !more {
				break
			}
		}
		if got, want := s.result(), r.result(); got != want {
			t.Fatalf("SimResult %+v, reference %+v", got, want)
		}
	})
}

func assertSameState(t *testing.T, ev int, s *simEngine, r *refEngine) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(s.now, r.now) {
		t.Fatalf("event %d: now %v, reference %v", ev, s.now, r.now)
	}
	if len(s.fcts) != len(r.fcts) || !same(s.completedBytes, r.completedBytes) {
		t.Fatalf("event %d: %d completions (%v bytes), reference %d (%v bytes)",
			ev, len(s.fcts), s.completedBytes, len(r.fcts), r.completedBytes)
	}
	if k := len(s.fcts) - 1; k >= 0 && !same(s.fcts[k], r.fcts[k]) {
		t.Fatalf("event %d: completion FCT %v, reference %v", ev, s.fcts[k], r.fcts[k])
	}
	// Every reference round is either run or kept from the last filling,
	// which resumeRound's and fillRound's tests prove unchanged.
	if s.recomputeRounds+s.reusedRounds != r.recomputeRounds || s.events != r.events {
		t.Fatalf("event %d: %d run + %d reused rounds over %d events, reference %d over %d",
			ev, s.recomputeRounds, s.reusedRounds, s.events, r.recomputeRounds, r.events)
	}
	if len(s.active) != len(r.active) {
		t.Fatalf("event %d: %d active flows, reference %d", ev, len(s.active), len(r.active))
	}
	for i, f := range s.active {
		g := r.active[i]
		c := f.class
		if c.nhops != g.nhops || c.hopIdx != g.hopIdx || !same(f.started, g.started) || !same(f.size, g.size) {
			t.Fatalf("event %d: flow %d is %v/%d started %v, reference %v/%d started %v",
				ev, i, c.hopIdx, c.nhops, f.started, g.hopIdx, g.nhops, g.started)
		}
		if rem := s.remain[i]; !same(c.rate, g.rate) || !same(s.frate[i], c.rate) || !same(rem, g.remaining) {
			t.Fatalf("event %d: flow %d rate %v (class %v) remaining %v, reference rate %v remaining %v",
				ev, i, s.frate[i], c.rate, rem, g.rate, g.remaining)
		}
	}
	assertBookkeeping(t, ev, s)
}

// assertBookkeeping checks what the engine keeps incrementally between
// events: class order sorted by first active index, the links in the
// per-flow engine's first-touch order at their places, round sequence
// numbers strictly increasing along the log, and no marked link left
// over (a filling ends only once bottleneck has dropped every one).
func assertBookkeeping(t *testing.T, ev int, s *simEngine) {
	t.Helper()
	if len(s.marked) != 0 {
		t.Fatalf("event %d: links %v still marked between fillings", ev, s.marked)
	}
	for k := 1; k < len(s.order); k++ {
		if s.order[k-1].first >= s.order[k].first {
			t.Fatalf("event %d: class order has first %d before %d", ev, s.order[k-1].first, s.order[k].first)
		}
	}
	want := firstTouch(s)
	if len(want) != len(s.links) {
		t.Fatalf("event %d: links %v, first touch %v", ev, s.links, want)
	}
	for p, li := range want {
		if s.links[p] != li || s.linkPos[li] != p {
			t.Fatalf("event %d: links %v, first touch %v", ev, s.links, want)
		}
	}
	for prev, i := int32(0), s.rounds[0].next; i != 0; prev, i = i, s.rounds[i].next {
		if prev != 0 && s.rounds[i].seq <= s.rounds[prev].seq {
			t.Fatalf("event %d: round seq %d after %d", ev, s.rounds[i].seq, s.rounds[prev].seq)
		}
	}
}

// TestFillingResumeSeeds runs the engine over the FuzzMaxMinRates seeds
// committed for the resume paths and checks that each drives the path it
// is named for, judged from the active flows and the round log, and that
// the engine keeps rounds from one filling to the next on every one of
// them:
//
//   - resume-past-round-0: a completion whose class froze after round 0
//     and leaves the links in order, so the filling resumes there;
//   - reorder-one-flow-class-earlier: a completion whose index goes to the
//     one flow of another class, moving that class earlier and its links
//     ahead of others, with the filling resuming past round 0 all the
//     same;
//   - class-vanishes-link-drops: the last flow of a class completes and a
//     link it alone crossed leaves the first-touch order, the others
//     keeping theirs.
func TestFillingResumeSeeds(t *testing.T) {
	type event struct {
		before, after []int
		completed     *flow
		moved         *pathClass
		froze         int  // log position of the round that froze completed's class
		resumed       bool // the log's first round stayed: its slot, bottleneck and share
	}
	for _, c := range []struct {
		seed string
		hits func(e event) bool
	}{
		{"resume-past-round-0", func(e event) bool {
			return e.froze > 0 && !reorders(e.before, e.after)
		}},
		{"reorder-one-flow-class-earlier", func(e event) bool {
			return e.moved != nil && reorders(e.before, e.after) && e.resumed
		}},
		{"class-vanishes-link-drops", func(e event) bool {
			return len(e.completed.class.flows) == 0 && len(e.after) < len(e.before) && !reorders(e.before, e.after)
		}},
	} {
		t.Run(c.seed, func(t *testing.T) {
			top, w, cfg := fuzzSim(seedBytes(t, c.seed))
			s, err := newSimEngine(top, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			for {
				e := event{before: firstTouch(s), completed: s.done}
				if e.completed == nil || s.doneAt >= s.next[s.heap[0]] {
					e.completed = nil
				}
				head := s.rounds[0].next
				headRound := s.rounds[head]
				if e.completed != nil {
					e.froze = logPos(s, e.completed.class.round)
					if g := s.active[len(s.active)-1]; g != e.completed && len(g.class.flows) == 1 && e.completed.idx < g.class.first {
						e.moved = g.class
					}
				}
				if !s.step() {
					break
				}
				e.after = firstTouch(s)
				r := s.rounds[head]
				e.resumed = head != 0 && s.rounds[0].next == head && r.bottleneck == headRound.bottleneck && r.share == headRound.share
				if e.completed != nil && c.hits(e) {
					hits++
				}
			}
			if hits == 0 {
				t.Errorf("seed never drives the path it is named for")
			}
			if s.reusedRounds == 0 {
				t.Errorf("no round kept across %d events", s.events)
			}
		})
	}
}

// logPos is the place of round slot i in the engine's round log.
func logPos(s *simEngine, i int32) int {
	p := 0
	for j := s.rounds[0].next; j != i; j = s.rounds[j].next {
		p++
	}
	return p
}

func seedBytes(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzMaxMinRates", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(data)
}

// firstTouch lists the links in the order the per-flow engine first
// meets them: active flows in order, hops in order.
func firstTouch(s *simEngine) []int {
	seen := make(map[int]bool)
	var links []int
	for _, f := range s.active {
		c := f.class
		for _, li := range c.hopIdx[:c.nhops] {
			if !seen[li] {
				seen[li] = true
				links = append(links, li)
			}
		}
	}
	return links
}

// reorders reports whether the links on both lists are in a different
// relative order on the second.
func reorders(before, after []int) bool {
	pos := make(map[int]int, len(before))
	for p, li := range before {
		pos[li] = p
	}
	last := -1
	for _, li := range after {
		if p, ok := pos[li]; ok {
			if p < last {
				return true
			}
			last = p
		}
	}
	return false
}
