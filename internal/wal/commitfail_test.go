package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

// idleBackend realizes nothing: the commit-failure test is about intake.
type idleBackend struct{}

func (idleBackend) Ensure(string, topo.Shape, []int) (bool, error) { return false, nil }
func (idleBackend) Destroy(string) error                           { return nil }
func (idleBackend) Slices() []string                               { return nil }
func (idleBackend) Info() fleet.PodInfo                            { return fleet.PodInfo{} }

// fsync fault modes for the seam below.
const (
	fsyncPass     int32 = iota
	fsyncHold           // block in fsync until released, then sync
	fsyncHoldFail       // block in fsync until released, then fail without syncing
)

// stagedInCur waits until the log's current batch holds n staged records.
func stagedInCur(t *testing.T, l *Log, n int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.mu.Lock()
		got := l.cur.n
		l.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d %s mutations staged into the held-back batch", got, n, what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// One batch with several waiters in it fails its fsync while a further
// batch fills behind it. Every waiter of both batches must get the error
// and none of their mutations may reach the manager or the disk; the error
// is sticky for later mutations and for Checkpoint; wal-status reports it;
// and a reopen recovers exactly the acknowledged prefix.
func TestCommitFailureUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected fsync failure")
	var mode atomic.Int32
	held, release := make(chan struct{}), make(chan struct{})
	failing, fail := make(chan struct{}), make(chan struct{})
	st.log.fsync = func(f *os.File) error {
		switch mode.Load() {
		case fsyncHold:
			mode.Store(fsyncPass)
			close(held)
			<-release
		case fsyncHoldFail:
			// Only this one fsync fails: a log that kept committing after
			// it would pass its later batches and be caught acking them.
			mode.Store(fsyncPass)
			close(failing)
			<-fail
			return injected
		}
		return f.Sync()
	}

	// want folds what was acknowledged, in acknowledgement order.
	want := NewFleetState()
	acked := want.Apply

	m := fleet.NewManager(fleet.Options{Journal: st})
	defer m.Close()
	const pods = 11
	for i := 0; i < pods; i++ {
		name := fmt.Sprintf("pod%d", i)
		if err := m.AddPod(name, idleBackend{}); err != nil {
			t.Fatal(err)
		}
		acked(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: name})
	}
	shape := topo.Shape{X: 4, Y: 4, Z: 4}
	for i := 0; i < 3; i++ {
		in := fleet.SliceIntent{Name: fmt.Sprintf("acked%d", i), Shape: shape}
		if err := m.SetSliceIntent("pod0", in); err != nil {
			t.Fatal(err)
		}
		acked(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &in})
	}

	victim := fleet.SliceIntent{Name: "victim", Shape: shape}
	if err := m.SetSliceIntent("pod2", victim); err != nil {
		t.Fatal(err)
	}
	acked(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod2", Slice: &victim})

	// Park the writer inside one batch's fsync so the next batch fills.
	mode.Store(fsyncHold)
	heldIn := fleet.SliceIntent{Name: "held", Shape: shape}
	heldErr := make(chan error, 1)
	go func() { heldErr <- m.SetSliceIntent("pod0", heldIn) }()
	<-held

	// One doomed mutation per pod, none on the held one, so no two share a
	// scope and all of them can wait in the same batch: keyed and pod-wide
	// ones alike.
	doomed := []func() error{
		func() error { return m.SetSliceIntent("pod1", fleet.SliceIntent{Name: "doomed", Shape: shape}) },
		func() error { return m.RemoveSliceIntent("pod2", "victim") },
		func() error { return m.DrainOCS("pod3", 7) },
		func() error { return m.DrainPod("pod4") },
		func() error { return m.ReplaceIntent("pod5", []fleet.SliceIntent{{Name: "doomed", Shape: shape}}) },
		func() error { return m.UndrainPod("pod6") },
		func() error { return m.UndrainOCS("pod7", 3) },
	}
	errs := make([]error, len(doomed))
	var wg sync.WaitGroup
	for i, fn := range doomed {
		wg.Add(1)
		go func(i int, fn func() error) { defer wg.Done(); errs[i] = fn() }(i, fn)
	}
	stagedInCur(t, st.log, len(doomed), "doomed")
	mode.Store(fsyncHoldFail)
	close(release)
	if err := <-heldErr; err != nil {
		t.Fatalf("the batch committed before the fault: %v", err)
	}
	acked(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &heldIn})

	// While the writer sits in the doomed batch's fsync the log is not yet
	// broken, so these stage into the batch behind it, on pods of their own
	// (the doomed callers still hold their scopes). They must fail with it:
	// committing them would ack records that sit behind a rolled-back hole.
	<-failing
	trailing := []func() error{
		func() error { return m.SetSliceIntent("pod8", fleet.SliceIntent{Name: "trailing", Shape: shape}) },
		func() error { return m.DrainPod("pod9") },
		func() error { return m.DrainOCS("pod10", 5) },
	}
	trailErrs := make([]error, len(trailing))
	for i, fn := range trailing {
		wg.Add(1)
		go func(i int, fn func() error) { defer wg.Done(); trailErrs[i] = fn() }(i, fn)
	}
	stagedInCur(t, st.log, len(trailing), "trailing")
	close(fail)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, injected) {
			t.Errorf("doomed mutation %d = %v, want the injected failure", i, err)
		}
	}
	for i, err := range trailErrs {
		if !errors.Is(err, injected) {
			t.Errorf("mutation %d staged behind the failing batch = %v, want the injected failure", i, err)
		}
	}

	// Sticky: later mutations are rejected, Checkpoint refuses, status says why.
	if err := m.SetSliceIntent("pod1", fleet.SliceIntent{Name: "late", Shape: shape}); !errors.Is(err, injected) {
		t.Errorf("mutation after the failure = %v, want the sticky error", err)
	}
	if err := st.Checkpoint(); !errors.Is(err, injected) {
		t.Errorf("Checkpoint on a broken log = %v, want a refusal carrying the sticky error", err)
	}
	ls := st.Status().Log
	if ls.Broken == "" {
		t.Error("Status().Log.Broken is empty on a broken log")
	}
	if ls.TotalBytes != st.log.segBytes {
		t.Errorf("segment holds %d bytes, want the %d committed ones: the failed batch was not rolled back, or something was written behind it", ls.TotalBytes, st.log.segBytes)
	}

	// None of the rejected mutations reached the manager.
	status := m.Status()
	for _, ps := range status.Pods {
		var wantSlices []string
		switch ps.Name {
		case "pod0":
			wantSlices = []string{"acked0", "acked1", "acked2", "held"}
		case "pod2":
			wantSlices = []string{"victim"}
		}
		if fmt.Sprint(ps.DesiredSlices) != fmt.Sprint(wantSlices) || ps.Drained || len(ps.DrainedOCS) != 0 {
			t.Errorf("%s after the failure: %+v", ps.Name, ps)
		}
	}

	// Reopen: exactly the acknowledged prefix.
	m.Close()
	_ = st.Close() // the log is broken; only the files matter now
	re, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.FleetDigest()
	if err != nil {
		t.Fatal(err)
	}
	wd, err := want.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != fmt.Sprintf("%x", wd) {
		b, _ := re.fleetState.Encode()
		t.Errorf("reopened state is not the acknowledged prefix: %s", b)
	}
	if re.Status().Log.Broken != "" {
		t.Error("a reopened log still reports broken")
	}
}
