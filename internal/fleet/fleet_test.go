package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// fakeBackend is an in-memory Backend with injectable failures.
type fakeBackend struct {
	mu     sync.Mutex
	slices map[string]SliceIntent
	fail   error // non-nil: Ensure and Destroy fail
	calls  int
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{slices: make(map[string]SliceIntent)}
}

func (b *fakeBackend) setFail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fail = err
}

func (b *fakeBackend) Ensure(name string, shape topo.Shape, cubes []int) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	if b.fail != nil {
		return false, b.fail
	}
	prev, ok := b.slices[name]
	next := SliceIntent{Name: name, Shape: shape, Cubes: append([]int(nil), cubes...)}
	b.slices[name] = next
	return !ok || prev.Shape != shape, nil
}

func (b *fakeBackend) Destroy(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	if b.fail != nil {
		return b.fail
	}
	delete(b.slices, name)
	return nil
}

func (b *fakeBackend) Slices() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var names []string
	for n := range b.slices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (b *fakeBackend) Info() PodInfo {
	return PodInfo{InstalledCubes: 64, FreeCubes: 64 - len(b.Slices()), Slices: b.Slices()}
}

func fastOptions(reg *telemetry.Registry) Options {
	return Options{
		Metrics:         reg,
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		QuarantineAfter: 3,
		Seed:            42,
	}
}

// collector accumulates a subscription's events across successive waits so
// predicates can count cumulatively.
type collector struct {
	sub  *Subscription
	seen []Event
}

// waitFor drains the subscription until pred over all events seen so far is
// satisfied or the deadline hits, returning the cumulative event list.
func (c *collector) waitFor(t *testing.T, timeout time.Duration, pred func([]Event) bool) []Event {
	t.Helper()
	deadline := time.After(timeout)
	for {
		if pred(c.seen) {
			return c.seen
		}
		select {
		case ev, ok := <-c.sub.Events():
			if !ok {
				t.Fatalf("subscription closed; saw %d events", len(c.seen))
			}
			c.seen = append(c.seen, ev)
		case <-deadline:
			t.Fatalf("timeout; saw events: %+v", c.seen)
		}
	}
}

func countEvents(evs []Event, pod string, typ EventType) int {
	n := 0
	for _, ev := range evs {
		if (pod == "" || ev.Pod == pod) && ev.Type == typ {
			n++
		}
	}
	return n
}

func TestReconcileConverges(t *testing.T) {
	m := NewManager(fastOptions(nil))
	defer m.Close()
	b := newFakeBackend()
	if err := m.AddPod("p0", b); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(64)
	defer sub.Close()
	col := &collector{sub: sub}

	if err := m.SetSliceIntent("p0", SliceIntent{Name: "a", Shape: topo.Shape{X: 4, Y: 4, Z: 8}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("p0", SliceIntent{Name: "b", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceReady) >= 2 &&
			countEvents(evs, "p0", EventConverged) >= 1
	})
	if got := b.Slices(); len(got) != 2 {
		t.Fatalf("backend slices = %v", got)
	}
	ps, err := m.PodStatus("p0")
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Converged || len(ps.DesiredSlices) != 2 || len(ps.ActualSlices) != 2 {
		t.Fatalf("status = %+v", ps)
	}

	// Removal destroys and emits slice-removed.
	if err := m.RemoveSliceIntent("p0", "a"); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceRemoved) >= 1
	})
	if got := b.Slices(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("backend slices after remove = %v", got)
	}
}

// TestFleetQuarantineAndConvergence is the acceptance scenario: intents for
// several pods applied concurrently with one persistently failing pod. The
// healthy pods must converge, the failing pod must be quarantined with its
// retries/backoffs visible in the registry, and a watch client must see a
// convergence event for every applied intent.
func TestFleetQuarantineAndConvergence(t *testing.T) {
	reg := telemetry.NewRegistry()
	var log bytes.Buffer // written once, before the quarantine it reports is visible
	opts := fastOptions(reg)
	opts.Log = slog.New(slog.NewTextHandler(&log, nil))
	m := NewManager(opts)
	defer m.Close()

	healthy := []string{"p0", "p1", "p2", "p3"}
	backends := make(map[string]*fakeBackend)
	for _, name := range healthy {
		backends[name] = newFakeBackend()
		if err := m.AddPod(name, backends[name]); err != nil {
			t.Fatal(err)
		}
	}
	bad := newFakeBackend()
	bad.setFail(errors.New("laser interlock tripped"))
	if err := m.AddPod("bad", bad); err != nil {
		t.Fatal(err)
	}

	sub := m.Subscribe(256)
	defer sub.Close()
	col := &collector{sub: sub}

	// Apply intents for every pod concurrently: two per healthy pod, one
	// for the failing pod.
	var wg sync.WaitGroup
	for _, name := range healthy {
		wg.Add(1)
		go func(pod string) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				in := SliceIntent{Name: fmt.Sprintf("job%d", i), Shape: topo.Shape{X: 4, Y: 4, Z: 4 * (i + 1)}}
				if err := m.SetSliceIntent(pod, in); err != nil {
					t.Error(err)
				}
			}
		}(name)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.SetSliceIntent("bad", SliceIntent{Name: "doomed", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	evs := col.waitFor(t, 10*time.Second, func(evs []Event) bool {
		for _, name := range healthy {
			if countEvents(evs, name, EventSliceReady) < 2 {
				return false
			}
		}
		return countEvents(evs, "bad", EventQuarantined) >= 1
	})

	// (a) Healthy pods converged to intent.
	for _, name := range healthy {
		if got := backends[name].Slices(); len(got) != 2 {
			t.Errorf("pod %s slices = %v", name, got)
		}
		ps, err := m.PodStatus(name)
		if err != nil {
			t.Fatal(err)
		}
		if !ps.Converged || ps.Quarantined {
			t.Errorf("pod %s status = %+v", name, ps)
		}
	}

	// (b) The failing pod is quarantined, with backoff observable in the
	// registry.
	ps, err := m.PodStatus("bad")
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Quarantined || ps.ConsecutiveFailures < 3 || ps.LastError == "" {
		t.Fatalf("bad pod status = %+v", ps)
	}
	if got := reg.Counter("fleet.pod.bad.retries_total").Value(); got < 3 {
		t.Errorf("bad pod retries = %d", got)
	}
	if got := reg.Counter("fleet.retries_total").Value(); got < 3 {
		t.Errorf("fleet retries = %d", got)
	}
	if got := reg.Counter("fleet.backoffs_total").Value(); got < 2 {
		t.Errorf("fleet backoffs = %d", got)
	}
	if got := reg.Counter("fleet.quarantines_total").Value(); got != 1 {
		t.Errorf("quarantines = %d", got)
	}
	if got := reg.Gauge("fleet.quarantined_pods").Value(); got != 1 {
		t.Errorf("quarantined gauge = %g", got)
	}
	text := reg.Text()
	for _, want := range []string{"fleet.retries_total", "fleet.backoffs_total", "fleet.quarantined_pods 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	recs := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if len(recs) != 1 || !strings.Contains(recs[0], " level=ERROR ") || !strings.Contains(recs[0], " pod=bad ") {
		t.Errorf("records:\n%s", log.String())
	}

	// (c) The watch client saw a convergence event for every applied
	// intent (2 per healthy pod) — and none for the quarantined pod.
	for _, name := range healthy {
		if got := countEvents(evs, name, EventSliceReady); got != 2 {
			t.Errorf("pod %s slice-ready events = %d", name, got)
		}
	}
	if got := countEvents(evs, "bad", EventSliceReady); got != 0 {
		t.Errorf("quarantined pod got %d slice-ready events", got)
	}

	// Recovery: fix the backend, undrain to release the quarantine, and
	// the retained intent converges.
	bad.setFail(nil)
	if err := m.UndrainPod("bad"); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "bad", EventSliceReady) >= 1
	})
	if got := bad.Slices(); len(got) != 1 || got[0] != "doomed" {
		t.Fatalf("recovered pod slices = %v", got)
	}
	if got := reg.Gauge("fleet.quarantined_pods").Value(); got != 0 {
		t.Errorf("quarantined gauge after recovery = %g", got)
	}
}

func TestDrainUndrainPod(t *testing.T) {
	m := NewManager(fastOptions(nil))
	defer m.Close()
	b := newFakeBackend()
	if err := m.AddPod("p0", b); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(64)
	defer sub.Close()
	col := &collector{sub: sub}

	if err := m.SetSliceIntent("p0", SliceIntent{Name: "a", Shape: topo.Shape{X: 4, Y: 4, Z: 8}}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceReady) >= 1
	})

	if err := m.DrainPod("p0"); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventDrained) >= 1 && len(b.Slices()) == 0
	})
	ps, _ := m.PodStatus("p0")
	if !ps.Drained || len(ps.DesiredSlices) != 1 {
		t.Fatalf("drained status = %+v", ps)
	}

	if err := m.UndrainPod("p0"); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceReady) >= 2
	})
	if got := b.Slices(); len(got) != 1 {
		t.Fatalf("slices after undrain = %v", got)
	}
}

func TestDrainOCSDefersNewSlices(t *testing.T) {
	m := NewManager(fastOptions(nil))
	defer m.Close()
	b := newFakeBackend()
	if err := m.AddPod("p0", b); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(64)
	defer sub.Close()
	col := &collector{sub: sub}

	if err := m.SetSliceIntent("p0", SliceIntent{Name: "old", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceReady) >= 1
	})

	if err := m.DrainOCS("p0", 7); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("p0", SliceIntent{Name: "new", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventDeferred) >= 1
	})
	if got := b.Slices(); len(got) != 1 || got[0] != "old" {
		t.Fatalf("slices during ocs drain = %v", got)
	}
	ps, _ := m.PodStatus("p0")
	if ps.Converged || len(ps.DrainedOCS) != 1 || ps.DrainedOCS[0] != 7 {
		t.Fatalf("ocs-drained status = %+v", ps)
	}

	if err := m.UndrainOCS("p0", 7); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceReady) >= 2
	})
	if got := b.Slices(); len(got) != 2 {
		t.Fatalf("slices after ocs undrain = %v", got)
	}
}

func TestReplaceIntent(t *testing.T) {
	m := NewManager(fastOptions(nil))
	defer m.Close()
	b := newFakeBackend()
	if err := m.AddPod("p0", b); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(64)
	defer sub.Close()
	col := &collector{sub: sub}

	if err := m.ReplaceIntent("p0", []SliceIntent{
		{Name: "a", Shape: topo.Shape{X: 4, Y: 4, Z: 4}},
		{Name: "b", Shape: topo.Shape{X: 4, Y: 4, Z: 8}},
	}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceReady) >= 2
	})
	if err := m.ReplaceIntent("p0", []SliceIntent{
		{Name: "c", Shape: topo.Shape{X: 4, Y: 4, Z: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 5*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceRemoved) >= 2 &&
			countEvents(evs, "p0", EventSliceReady) >= 3
	})
	if got := b.Slices(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("slices after replace = %v", got)
	}
}

func TestIntentValidation(t *testing.T) {
	m := NewManager(fastOptions(nil))
	defer m.Close()
	if err := m.AddPod("p0", newFakeBackend()); err != nil {
		t.Fatal(err)
	}
	cases := []SliceIntent{
		{Name: "", Shape: topo.Shape{X: 4, Y: 4, Z: 4}},
		{Name: "odd", Shape: topo.Shape{X: 3, Y: 4, Z: 4}},
		{Name: "short", Shape: topo.Shape{X: 4, Y: 4, Z: 8}, Cubes: []int{0}},
		{Name: "range", Shape: topo.Shape{X: 4, Y: 4, Z: 4}, Cubes: []int{64}},
		{Name: "dup", Shape: topo.Shape{X: 4, Y: 4, Z: 8}, Cubes: []int{1, 1}},
	}
	for _, in := range cases {
		if err := m.SetSliceIntent("p0", in); !errors.Is(err, ErrBadIntent) {
			t.Errorf("intent %+v: err = %v", in, err)
		}
	}
	if err := m.SetSliceIntent("ghost", SliceIntent{Name: "a", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); !errors.Is(err, ErrNoPod) {
		t.Errorf("unknown pod: err = %v", err)
	}
	if err := m.AddPod("p0", newFakeBackend()); !errors.Is(err, ErrPodExists) {
		t.Errorf("duplicate pod: err = %v", err)
	}
	if err := m.DrainOCS("p0", 99); !errors.Is(err, ErrBadIntent) {
		t.Errorf("bad ocs: err = %v", err)
	}
}

func TestManagerCloseStopsWorkersAndSubs(t *testing.T) {
	m := NewManager(fastOptions(nil))
	if err := m.AddPod("p0", newFakeBackend()); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(4)
	m.Close()
	m.Close() // idempotent
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscription not closed")
	}
	if err := m.AddPod("p1", newFakeBackend()); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddPod after close: %v", err)
	}
}

// TestWaitStatus: the evaluators' one settle-wait returns as soon as the
// predicate holds, and a timeout names what was awaited.
func TestWaitStatus(t *testing.T) {
	m := NewManager(fastOptions(telemetry.NewRegistry()))
	defer m.Close()
	good, bad := newFakeBackend(), newFakeBackend()
	bad.setFail(errors.New("backend down"))
	for name, b := range map[string]*fakeBackend{"good": good, "bad": bad} {
		if err := m.AddPod(name, b); err != nil {
			t.Fatal(err)
		}
		if err := m.SetSliceIntent(name, SliceIntent{Name: "s", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}); err != nil {
			t.Fatal(err)
		}
	}
	// One pod converges, the other burns its retry budget: both stable.
	if err := m.WaitStatus(10*time.Second, "both pods stable", Status.Settled); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if p, ok := st.Pod("good"); !ok || !p.Converged {
		t.Errorf("good pod %+v (found %t), want converged", p, ok)
	}
	if p, ok := st.Pod("bad"); !ok || !p.Quarantined {
		t.Errorf("bad pod %+v (found %t), want quarantined", p, ok)
	}
	if _, ok := st.Pod("nope"); ok {
		t.Error("found a pod that was never added")
	}
	err := m.WaitStatus(5*time.Millisecond, "the quarantined pod to converge", func(st Status) bool {
		p, _ := st.Pod("bad")
		return p.Converged
	})
	if err == nil || !strings.Contains(err.Error(), "the quarantined pod to converge") {
		t.Fatalf("timeout error %v does not name what was awaited", err)
	}
}
