package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"lightwave/internal/sim"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// modelJournal folds every entry it is handed, in the order it is handed
// them, into a reference intent store; hook (if set) runs first, outside
// the journal's own lock, and may fail the call.
type modelJournal struct {
	hook func(JournalEntry) error

	mu      sync.Mutex
	entries []JournalEntry
	pods    map[string]*modelPod
}

type modelPod struct {
	slices     map[string]SliceIntent
	drained    bool
	drainedOCS map[int]bool
}

func newModelJournal() *modelJournal { return &modelJournal{pods: map[string]*modelPod{}} }

func (j *modelJournal) JournalFleet(e JournalEntry) error {
	if j.hook != nil {
		if err := j.hook(e); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = append(j.entries, e)
	p := j.pods[e.Pod]
	if p == nil {
		p = &modelPod{slices: map[string]SliceIntent{}, drainedOCS: map[int]bool{}}
		j.pods[e.Pod] = p
	}
	switch e.Op {
	case OpSetSlice:
		p.slices[e.Slice.Name] = *e.Slice
	case OpRemoveSlice:
		delete(p.slices, e.Name)
	case OpReplace:
		p.slices = map[string]SliceIntent{}
		for _, in := range e.Slices {
			p.slices[in.Name] = in
		}
	case OpDrainPod:
		p.drained = true
	case OpUndrainPod:
		p.drained = false
	case OpDrainOCS:
		p.drainedOCS[e.OCS] = true
	case OpUndrainOCS:
		delete(p.drainedOCS, e.OCS)
	}
	return nil
}

func (j *modelJournal) ops() []JournalOp {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []JournalOp
	for _, e := range j.entries {
		out = append(out, e.Op)
	}
	return out
}

func cube(z int) topo.Shape { return topo.Shape{X: 4, Y: 4, Z: 4 * z} }

// within fails the test if fn has not returned by the deadline: the way a
// lock-order mistake in intake shows up.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %s", what, d)
	}
}

// lwfctl fleet undrain pod0 99 used to write a durable undrain-ocs record
// for an OCS that does not exist, and emit an event for it.
func TestUndrainOCSRejectsOutOfRange(t *testing.T) {
	j := newModelJournal()
	opts := fastOptions(nil)
	opts.Journal = j
	m := NewManager(opts)
	defer m.Close()
	if err := m.AddPod("pod0", newFakeBackend()); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(16)
	defer sub.Close()
	for _, id := range []int{-1, topo.NumOCS, 99} {
		if err := m.UndrainOCS("pod0", id); !errors.Is(err, ErrBadIntent) {
			t.Errorf("UndrainOCS(%d) = %v, want ErrBadIntent", id, err)
		}
		if err := m.DrainOCS("pod0", id); !errors.Is(err, ErrBadIntent) {
			t.Errorf("DrainOCS(%d) = %v, want ErrBadIntent", id, err)
		}
	}
	if got := j.ops(); !reflect.DeepEqual(got, []JournalOp{OpAddPod}) {
		t.Errorf("journal = %v, want only add-pod", got)
	}
	select {
	case ev := <-sub.Events():
		t.Errorf("rejected drain emitted %+v", ev)
	default:
	}
}

// AddPod's answer must agree with the log: a registration whose add-pod
// record is durable may not be answered ErrClosed because Close ran while
// the record was being written (a restart would resurrect the pod).
func TestAddPodOutcomeMatchesJournal(t *testing.T) {
	j := newModelJournal()
	entered, release := make(chan struct{}), make(chan struct{})
	j.hook = func(JournalEntry) error { close(entered); <-release; return nil }
	opts := fastOptions(nil)
	opts.Journal = j
	m := NewManager(opts)
	addErr := make(chan error, 1)
	go func() { addErr <- m.AddPod("pod0", newFakeBackend()) }()
	<-entered
	closed := make(chan struct{})
	go func() { defer close(closed); m.Close() }()
	time.Sleep(10 * time.Millisecond) // let Close reach whatever it waits on
	close(release)
	err := <-addErr
	within(t, 10*time.Second, "Close behind an in-flight AddPod", func() { <-closed })
	if recorded := len(j.ops()) == 1; recorded != (err == nil) {
		t.Errorf("AddPod = %v, but journaled add-pod = %v", err, recorded)
	}
	if err == nil && !reflect.DeepEqual(m.Pods(), []string{"pod0"}) {
		t.Errorf("AddPod succeeded but Pods() = %v", m.Pods())
	}
	if err := m.AddPod("pod1", newFakeBackend()); !errors.Is(err, ErrClosed) {
		t.Errorf("AddPod after Close = %v, want ErrClosed", err)
	}
}

// No JournalFleet call is made with Manager.mu held: a journal that reads
// the manager back must not deadlock, from any of the eight mutators nor
// from the reconciler's quarantine and recover records.
func TestJournalRunsOutsideManagerLock(t *testing.T) {
	j := newModelJournal()
	opts := fastOptions(nil)
	opts.Journal = j
	m := NewManager(opts)
	defer m.Close()
	j.hook = func(JournalEntry) error { m.Status(); m.Pods(); return nil }

	b := newFakeBackend()
	sub := m.Subscribe(256)
	defer sub.Close()
	col := &collector{sub: sub}
	within(t, 5*time.Second, "mutators under a journal that calls Status", func() {
		steps := []error{
			m.AddPod("pod0", b),
			m.SetSliceIntent("pod0", SliceIntent{Name: "a", Shape: cube(1)}),
			m.ReplaceIntent("pod0", []SliceIntent{{Name: "a", Shape: cube(2)}, {Name: "b", Shape: cube(1)}}),
			m.RemoveSliceIntent("pod0", "b"),
			m.DrainOCS("pod0", 3),
			m.UndrainOCS("pod0", 3),
			m.DrainPod("pod0"),
			m.UndrainPod("pod0"),
		}
		for i, err := range steps {
			if err != nil {
				t.Errorf("step %d: %v", i, err)
			}
		}
	})
	// Quarantine, then recover: both records come from the worker.
	b.setFail(errors.New("backend down"))
	if err := m.SetSliceIntent("pod0", SliceIntent{Name: "c", Shape: cube(1)}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool { return countEvents(evs, "pod0", EventQuarantined) >= 1 })
	b.setFail(nil)
	if err := m.UndrainPod("pod0"); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool { return countEvents(evs, "pod0", EventRecovered) >= 1 })
	var quarantine, recover int
	for _, op := range j.ops() {
		switch op {
		case OpQuarantine:
			quarantine++
		case OpRecover:
			recover++
		}
	}
	if quarantine != 1 || recover != 1 {
		t.Errorf("journaled %d quarantine and %d recover records, want 1 and 1", quarantine, recover)
	}
}

// A journal error rejects the mutation before anything is applied: no
// intent change, no event, no reconcile.
func TestJournalErrorRejectsMutation(t *testing.T) {
	j := newModelJournal()
	opts := fastOptions(nil)
	opts.Journal = j
	m := NewManager(opts)
	defer m.Close()
	if err := m.AddPod("pod0", newFakeBackend()); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("pod0", SliceIntent{Name: "kept", Shape: cube(1)}); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(64)
	defer sub.Close()
	col := &collector{sub: sub}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool { return countEvents(evs, "pod0", EventConverged) >= 1 })
	before, _ := m.PodStatus("pod0")

	disk := errors.New("disk gone")
	j.hook = func(JournalEntry) error { return disk }
	for name, err := range map[string]error{
		"add-pod":      m.AddPod("pod1", newFakeBackend()),
		"set-slice":    m.SetSliceIntent("pod0", SliceIntent{Name: "new", Shape: cube(1)}),
		"remove-slice": m.RemoveSliceIntent("pod0", "kept"),
		"replace":      m.ReplaceIntent("pod0", nil),
		"drain-pod":    m.DrainPod("pod0"),
		"undrain-pod":  m.UndrainPod("pod0"),
		"drain-ocs":    m.DrainOCS("pod0", 1),
		"undrain-ocs":  m.UndrainOCS("pod0", 1),
	} {
		if !errors.Is(err, disk) {
			t.Errorf("%s = %v, want the journal's error", name, err)
		}
	}
	if after, _ := m.PodStatus("pod0"); !reflect.DeepEqual(before, after) {
		t.Errorf("rejected mutations changed the pod:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := m.Pods(); !reflect.DeepEqual(got, []string{"pod0"}) {
		t.Errorf("pods = %v", got)
	}
	select {
	case ev := <-sub.Events():
		t.Errorf("rejected mutation emitted %+v", ev)
	default:
	}
}

// Conflicting mutations have log order = apply order: goroutines race
// seeded mutations over a handful of shared slice names and OCS ids plus
// pod-wide replaces and drains, through a journal that yields mid-call to
// shake the interleavings. At quiesce the manager's intent must equal the
// fold of the journal in the order the journal saw it.
func TestConflictingScopesKeepLogOrder(t *testing.T) {
	j := newModelJournal()
	j.hook = func(JournalEntry) error { runtime.Gosched(); return nil }
	opts := fastOptions(telemetry.NewRegistry())
	opts.Journal = j
	m := NewManager(opts)
	defer m.Close()
	pods := []string{"pod0", "pod1"}
	for _, name := range pods {
		if err := m.AddPod(name, newFakeBackend()); err != nil {
			t.Fatal(err)
		}
	}
	const workers, opsEach = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.Substream(7, uint64(g))
			for i := 0; i < opsEach; i++ {
				pod := pods[rng.Intn(len(pods))]
				name := fmt.Sprintf("s%d", rng.Intn(4))
				in := SliceIntent{Name: name, Shape: cube(1 + rng.Intn(8))}
				var err error
				switch k := rng.Intn(20); {
				case k < 8:
					err = m.SetSliceIntent(pod, in)
				case k < 12:
					err = m.RemoveSliceIntent(pod, name)
				case k < 15:
					err = m.DrainOCS(pod, rng.Intn(3))
				case k < 18:
					err = m.UndrainOCS(pod, rng.Intn(3))
				case k == 18:
					err = m.ReplaceIntent(pod, []SliceIntent{in})
				default:
					if rng.Intn(2) == 0 {
						err = m.DrainPod(pod)
					} else {
						err = m.UndrainPod(pod)
					}
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, name := range pods {
		p, want := m.pods[name], j.pods[name]
		if !reflect.DeepEqual(p.desired, want.slices) {
			t.Errorf("%s desired %v, journal folds to %v", name, p.desired, want.slices)
		}
		if p.drained != want.drained {
			t.Errorf("%s drained %v, journal folds to %v", name, p.drained, want.drained)
		}
		if !reflect.DeepEqual(keysOf(p.drainedOCS), keysOf(want.drainedOCS)) {
			t.Errorf("%s drained OCS %v, journal folds to %v", name, keysOf(p.drainedOCS), keysOf(want.drainedOCS))
		}
	}
}

func keysOf(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
