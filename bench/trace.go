package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Op; Parent is the span that caused this one (0 for a root). Start
// and End are nanoseconds since the tracer was created. The JSON form is
// the JSONL schema documented in README.md.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory, one lane per recording goroutine so the
// generator's callers never contend on a shared lock, and writes them out
// when the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	lanes []*lane
}

// lane is an append-only span buffer. The mutex is uncontended for caller
// lanes and serializes the seam decorators, which several server
// goroutines may enter.
type lane struct {
	tr    *tracer
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newLane() *lane {
	l := &lane{tr: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// newIDs reserves n consecutive span ids and returns the first.
func (t *tracer) newIDs(n uint64) uint64 { return t.nextID.Add(n) - n + 1 }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records one finished span; id 0 allocates a fresh one.
func (l *lane) add(id, parent, op uint64, name string, start, end time.Time) {
	if id == 0 {
		id = l.tr.newIDs(1)
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: l.tr.since(start), End: l.tr.since(end)})
	l.mu.Unlock()
}

// all returns every recorded span ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children are
// clipped to the parent's interval and overlapping children are counted
// once.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// owner is the generator-side state a seam decorator consults to attach a
// span to the request that caused it: the root span id of the caller's
// in-flight operation and the id of the ack span of the RPC it is waiting
// on, both 0 when that operation is not sampled. Only the owning caller
// writes them, between its own requests.
type owner struct{ root, ack atomic.Uint64 }

func (o *owner) set(root, ack uint64) {
	o.root.Store(root)
	o.ack.Store(ack)
}

// seams is the set of timing decorators a traced rig installs at the
// fleet.Backend and fleet.Journal interfaces. owners maps an intent key
// (see sliceKey, ocsKey) to the caller that issues operations on it.
type seams struct {
	tr     *tracer
	owners map[string]*owner
	// waits marks workloads whose callers wait for convergence, so a
	// backend call on a slice belongs to that slice's in-flight operation.
	waits bool
}

func sliceKey(pod, slice string) string { return pod + "/" + slice }
func ocsKey(pod string, ocs int) string { return pod + "#" + strconv.Itoa(ocs) }

// idsOf returns the in-flight operation of the caller owning key.
func (s *seams) idsOf(key string) (root, ack uint64) {
	if o := s.owners[key]; o != nil {
		return o.root.Load(), o.ack.Load()
	}
	return 0, 0
}

// timedJournal records a wal.journal span around every JournalFleet call,
// parented to the ack span of the mutation that caused it.
type timedJournal struct {
	next fleet.Journal
	s    *seams
	ln   *lane
}

func (j *timedJournal) JournalFleet(e fleet.JournalEntry) error {
	start := time.Now()
	err := j.next.JournalFleet(e)
	end := time.Now()
	var root, ack uint64
	switch e.Op {
	case fleet.OpSetSlice:
		root, ack = j.s.idsOf(sliceKey(e.Pod, e.Slice.Name))
	case fleet.OpRemoveSlice:
		root, ack = j.s.idsOf(sliceKey(e.Pod, e.Name))
	case fleet.OpDrainOCS, fleet.OpUndrainOCS:
		root, ack = j.s.idsOf(ocsKey(e.Pod, e.OCS))
	}
	if root != 0 {
		j.ln.add(0, ack, root, "wal.journal", start, end)
	}
	return err
}

// timedBackend records core.* spans around the fleet.Backend calls the
// reconciler makes on one pod.
type timedBackend struct {
	next fleet.Backend
	pod  string
	s    *seams
	ln   *lane
	n    atomic.Uint64
}

func (b *timedBackend) record(name, slice string, start, end time.Time) {
	root, _ := b.s.idsOf(sliceKey(b.pod, slice))
	if root == 0 {
		return
	}
	if !b.s.waits {
		// The caller has moved on: this call answers one of its earlier
		// requests, not the one in flight.
		root = 0
	}
	b.ln.add(0, root, root, name, start, end)
}

func (b *timedBackend) Ensure(name string, shape topo.Shape, cubes []int) (bool, error) {
	start := time.Now()
	changed, err := b.next.Ensure(name, shape, cubes)
	b.record("core.ensure", name, start, time.Now())
	return changed, err
}

func (b *timedBackend) Destroy(name string) error {
	start := time.Now()
	err := b.next.Destroy(name)
	b.record("core.destroy", name, start, time.Now())
	return err
}

// Slices is called once per reconcile pass and belongs to no single
// request; one call in eight is recorded, matching the callers' sampling.
func (b *timedBackend) Slices() []string {
	if b.n.Add(1)%sampleEvery != 0 {
		return b.next.Slices()
	}
	start := time.Now()
	out := b.next.Slices()
	b.ln.add(0, 0, 0, "core.slices", start, time.Now())
	return out
}

func (b *timedBackend) Info() fleet.PodInfo { return b.next.Info() }
