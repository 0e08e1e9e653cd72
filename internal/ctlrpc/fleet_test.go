package ctlrpc

import (
	"context"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

// memBackend is a minimal in-memory fleet.Backend for wire-level tests.
type memBackend struct {
	mu     sync.Mutex
	slices map[string]topo.Shape
	fail   error
}

func newMemBackend() *memBackend { return &memBackend{slices: make(map[string]topo.Shape)} }

func (b *memBackend) setFail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fail = err
}

func (b *memBackend) Ensure(name string, shape topo.Shape, cubes []int) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return false, b.fail
	}
	prev, ok := b.slices[name]
	b.slices[name] = shape
	return !ok || prev != shape, nil
}

func (b *memBackend) Destroy(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return b.fail
	}
	delete(b.slices, name)
	return nil
}

func (b *memBackend) Slices() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var names []string
	for n := range b.slices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (b *memBackend) Info() fleet.PodInfo {
	return fleet.PodInfo{InstalledCubes: 64, FreeCubes: 64, Slices: b.Slices()}
}

// startFleetServer brings up a manager with the given pods behind a
// fleet server and returns a dialer for fresh clients.
func startFleetServer(t *testing.T, pods map[string]fleet.Backend) (dial func() *Client, m *fleet.Manager) {
	t.Helper()
	m = fleet.NewManager(fleet.Options{
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		QuarantineAfter: 3,
	})
	t.Cleanup(m.Close)
	for name, b := range pods {
		if err := m.AddPod(name, b); err != nil {
			t.Fatal(err)
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = NewFleetServer(m).Serve(ctx, lis)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return func() *Client {
		c, err := Dial(lis.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}, m
}

func TestFleetApplyIntentAndWatchOverWire(t *testing.T) {
	b0, b1 := newMemBackend(), newMemBackend()
	dial, _ := startFleetServer(t, map[string]fleet.Backend{"p0": b0, "p1": b1})

	// Watch on a dedicated connection, established before intents land.
	wc := dial()
	stream, err := wc.Watch()
	if err != nil {
		t.Fatal(err)
	}
	// The watch connection rejects unary calls.
	if _, err := wc.FleetStatus(); err != ErrClientStreaming {
		t.Fatalf("unary call on watch conn: %v", err)
	}

	c := dial()
	res, err := c.ApplyIntent(ApplyIntentParams{Pod: "p0", Slices: []SliceIntentSpec{
		{Name: "a", Shape: [3]int{4, 4, 8}},
		{Name: "b", Shape: [3]int{4, 4, 4}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 {
		t.Fatalf("accepted = %d", res.Accepted)
	}
	if _, err := c.ApplyIntent(ApplyIntentParams{Pod: "p1", Slices: []SliceIntentSpec{
		{Name: "c", Shape: [3]int{4, 4, 4}},
	}}); err != nil {
		t.Fatal(err)
	}

	// The stream must deliver a slice-ready event for every applied intent.
	want := map[string]bool{"p0/a": true, "p0/b": true, "p1/c": true}
	deadline := time.Now().Add(10 * time.Second)
	for len(want) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting for %v", want)
		}
		ev, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == string(fleet.EventSliceReady) {
			delete(want, ev.Pod+"/"+ev.Slice)
		}
	}

	st, err := c.FleetStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pods) != 2 {
		t.Fatalf("pods = %+v", st.Pods)
	}
	for _, ps := range st.Pods {
		if !ps.Converged {
			t.Errorf("pod %s not converged: %+v", ps.Name, ps)
		}
	}
	if got := b0.Slices(); len(got) != 2 {
		t.Fatalf("p0 slices = %v", got)
	}

	// Remove over the wire.
	if _, err := c.ApplyIntent(ApplyIntentParams{Pod: "p0", Slices: []SliceIntentSpec{
		{Name: "a", Remove: true},
	}}); err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == string(fleet.EventSliceRemoved) && ev.Pod == "p0" && ev.Slice == "a" {
			break
		}
	}
}

func TestFleetDrainUndrainOverWire(t *testing.T) {
	b := newMemBackend()
	dial, m := startFleetServer(t, map[string]fleet.Backend{"p0": b})
	c := dial()

	if _, err := c.ApplyIntent(ApplyIntentParams{Pod: "p0", Slices: []SliceIntentSpec{
		{Name: "a", Shape: [3]int{4, 4, 4}},
	}}); err != nil {
		t.Fatal(err)
	}
	waitPod(t, m, "p0", func(ps fleet.PodStatus) bool { return ps.Converged && len(ps.ActualSlices) == 1 })

	if err := c.Drain("p0", nil); err != nil {
		t.Fatal(err)
	}
	waitPod(t, m, "p0", func(ps fleet.PodStatus) bool { return ps.Drained && len(ps.ActualSlices) == 0 })

	if err := c.Undrain("p0", nil); err != nil {
		t.Fatal(err)
	}
	waitPod(t, m, "p0", func(ps fleet.PodStatus) bool { return !ps.Drained && len(ps.ActualSlices) == 1 })

	// OCS-level drain round-trips too.
	ocs := 5
	if err := c.Drain("p0", &ocs); err != nil {
		t.Fatal(err)
	}
	st, err := c.FleetStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pods) != 1 || len(st.Pods[0].DrainedOCS) != 1 || st.Pods[0].DrainedOCS[0] != 5 {
		t.Fatalf("status = %+v", st.Pods)
	}
	if err := c.Undrain("p0", &ocs); err != nil {
		t.Fatal(err)
	}
}

func waitPod(t *testing.T, m *fleet.Manager, pod string, pred func(fleet.PodStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps, err := m.PodStatus(pod)
		if err != nil {
			t.Fatal(err)
		}
		if pred(ps) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pod %s never reached state; last = %+v", pod, ps)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFleetErrorsOverWire(t *testing.T) {
	dial, _ := startFleetServer(t, map[string]fleet.Backend{"p0": newMemBackend()})
	c := dial()
	if _, err := c.ApplyIntent(ApplyIntentParams{Pod: "ghost", Slices: []SliceIntentSpec{
		{Name: "a", Shape: [3]int{4, 4, 4}},
	}}); err == nil || !strings.Contains(err.Error(), "no such pod") {
		t.Fatalf("unknown pod: %v", err)
	}
	if _, err := c.ApplyIntent(ApplyIntentParams{Slices: []SliceIntentSpec{
		{Name: "a", Shape: [3]int{4, 4, 4}},
	}}); err == nil || !strings.Contains(err.Error(), "missing pod") {
		t.Fatalf("missing pod: %v", err)
	}
	if _, err := c.ApplyIntent(ApplyIntentParams{Pod: "p0", Replace: true, Slices: []SliceIntentSpec{
		{Name: "a", Remove: true},
	}}); err == nil || !strings.Contains(err.Error(), "remove is meaningless") {
		t.Fatalf("replace+remove: %v", err)
	}
	if err := c.Drain("ghost", nil); err == nil {
		t.Fatal("drain of unknown pod accepted")
	}
	if err := c.call("bogus", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method: %v", err)
	}
}

// TestClosedWatchReleasesStream: a client hang-up ends a watch stream at
// once, with no fleet event needed to discover the dead socket, and the
// connection's goroutines go with it.
func TestClosedWatchReleasesStream(t *testing.T) {
	dial, _ := startFleetServer(t, map[string]fleet.Backend{"p0": newMemBackend()})
	base := warmGoroutines(t, func() {
		c := dial()
		if _, err := c.FleetStatus(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	})
	for range 20 {
		stream, err := dial().Watch()
		if err != nil {
			t.Fatal(err)
		}
		stream.Close()
	}
	if n := settledGoroutines(base + 2); n > base+2 {
		t.Fatalf("20 closed watches on a quiet fleet left %d goroutines over the warm baseline of %d", n-base, base)
	}
}
