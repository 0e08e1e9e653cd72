package sim

import "container/heap"

// Time is a virtual simulation time in seconds.
type Time float64

// event is a scheduled callback.
type event struct {
	at  Time
	fn  func()
	seq uint64 // scheduling order, the tie-break
}

// Queue is a discrete-event simulation queue with a virtual clock.
// The zero value is an empty queue at time zero, ready to use.
type Queue struct {
	now    Time
	events eventHeap
	nextID uint64
}

// Now returns the current virtual time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.events) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// simulated causality must be preserved.
func (q *Queue) At(t Time, fn func()) {
	if t < q.now {
		panic("sim: scheduling event in the past")
	}
	heap.Push(&q.events, &event{at: t, fn: fn, seq: q.nextID})
	q.nextID++
}

// After schedules fn to run d seconds from the current virtual time.
func (q *Queue) After(d float64, fn func()) {
	q.At(q.now+Time(d), fn)
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (q *Queue) Step() bool {
	if len(q.events) == 0 {
		return false
	}
	e := heap.Pop(&q.events).(*event)
	q.now = e.at
	e.fn()
	return true
}

// RunUntil fires events with At <= deadline and advances the clock to
// exactly deadline (even if no event fired at that instant).
func (q *Queue) RunUntil(deadline Time) {
	for len(q.events) > 0 && q.events[0].at <= deadline {
		q.Step()
	}
	if deadline > q.now {
		q.now = deadline
	}
}

// eventHeap orders events by time, breaking ties by scheduling order so the
// simulation is deterministic.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
