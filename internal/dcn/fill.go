package dcn

import "math"

// The exact max-min filler: progressive filling over path classes, kept
// across events as a log of rounds that the next filling resumes, with the
// bottleneck of each new round found by a scan of the links the filling
// marked. Marking every link and resuming at round 0 fills from zero.

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
//   - On a tie, the bottleneck scan takes the link earlier in first-touch
//     order: the old scan's strict-< first minimum.
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
	s.marked = append(s.marked, li)
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
// there was one. Every link this filling has not marked is where the last
// filling had it, so the first round at the cursor whose bottleneck is
// unmarked has the least share among them (the earliest in first-touch
// order on a tie). The round goes to whichever of that round and the
// marked links' bottleneck is less: the logged round is kept, or the
// marked bottleneck runs a new one (with no marked link left, its share
// is +Inf and every logged round is kept). Logged rounds with a marked
// bottleneck are dropped on the way.
//
//lwlint:hotpath
func (s *simEngine) fillRound() bool {
	for s.cursor != 0 && s.linkStamp[s.rounds[s.cursor].bottleneck] == s.stamp {
		s.dropRound()
	}
	b, share, ok := s.bottleneck()
	if s.cursor != 0 {
		if r := &s.rounds[s.cursor]; r.share < share || r.share == share && s.linkPos[r.bottleneck] < s.linkPos[b] {
			s.keepRound()
			return true
		}
	}
	if !ok {
		return false
	}
	s.newRound(b, share)
	return true
}

// bottleneck returns the marked link with the least fair share, the
// earliest in first-touch order on a tie, and its share; ok is false when
// no marked link has an unfrozen flow. It drops the links with none from
// marked: within a filling a marked link's unfrozen flows only fall.
//
//lwlint:hotpath
func (s *simEngine) bottleneck() (b int, share float64, ok bool) {
	share = math.Inf(1)
	for k := 0; k < len(s.marked); {
		li := s.marked[k]
		if s.linkUnfrozen[li] == 0 {
			last := len(s.marked) - 1
			s.marked[k] = s.marked[last]
			s.marked = s.marked[:last]
			continue
		}
		if sh := s.linkCapacity[li] / float64(s.linkUnfrozen[li]); sh < share || sh == share && s.linkPos[li] < s.linkPos[b] {
			b, share = li, sh
		}
		k++
	}
	return b, share, len(s.marked) > 0
}

// newRound freezes the unfrozen classes on bottleneck b at its share
// (capped at the trunk rate) in a round logged before the cursor, marking
// the links they cross.
//
//lwlint:hotpath
func (s *simEngine) newRound(b int, share float64) {
	s.recomputeRounds++
	// A single flow rides one physical trunk (ECMP hashing), so its rate
	// is capped at the trunk rate even on multi-trunk pairs.
	rate := min(share, s.trunk)
	if len(s.frozen)+len(s.linkClasses[b]) > cap(s.frozen) && 2*s.live < len(s.frozen) {
		s.compactFrozen()
	}
	i := s.insertRound(b, share)
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
		for _, f := range x.flows {
			s.frate[f.idx] = rate
		}
		s.frozen = append(s.frozen, x.id)
	}
	s.rounds[i].end = int32(len(s.frozen))
	s.live += len(s.frozen) - start
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
// its slot and with the next sequence number. Its bottleneck is unmarked, so its classes are still the
// unfrozen ones on it and keep their rates; if it is flagged, a marked
// link it changes gets its capacity recomputed from where it stands.
//
//lwlint:hotpath
func (s *simEngine) keepRound() {
	s.walkedRounds++
	r := &s.rounds[s.cursor]
	if r.stamp == s.stamp {
		rate := min(r.share, s.trunk)
		for _, id := range s.frozen[r.start:r.end] {
			x := &s.classes[id]
			for h := 0; h < x.nhops; h++ {
				if li := x.hopIdx[h]; s.linkStamp[li] == s.stamp {
					s.linkUpdates++
					s.freeze(x, h, rate)
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
// cross are marked at their current states.
//
//lwlint:hotpath
func (s *simEngine) dropRound() {
	s.walkedRounds++
	i := s.cursor
	r := &s.rounds[i]
	for _, id := range s.frozen[r.start:r.end] {
		x := &s.classes[id]
		if x.round != i {
			continue // frozen again by a new round already
		}
		x.round = 0
		for h := 0; h < x.nhops; h++ {
			s.markLink(x.hopIdx[h])
		}
	}
	s.cursor = r.next
	s.rounds[r.prev].next, s.rounds[r.next].prev = r.next, r.prev
	r.next, s.spare = s.spare, i
	s.live -= int(r.end - r.start)
	s.nrounds--
	s.reusedRounds--
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
