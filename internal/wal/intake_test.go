package wal_test

// Concurrent intake equivalence: fleet.Manager journals intents outside
// its own lock, ordered only by per-scope reservations, and wal.Store
// folds them at stage time. Whatever interleaving that produces, three
// views must agree once it quiesces — the manager's intent, the store's
// materialized state, and what a reopened state directory replays to — and
// a crash image taken at any instant must hold every mutation that had
// been acknowledged before the image was started.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/sim"
	"lightwave/internal/topo"
	"lightwave/internal/wal"
)

// memBackend realizes whatever it is asked to and remembers the shape, so
// a converged pod's backend is the manager's intent made visible.
type memBackend struct {
	mu     sync.Mutex
	slices map[string]fleet.SliceIntent
}

func (b *memBackend) Ensure(name string, shape topo.Shape, cubes []int) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.slices[name] = fleet.SliceIntent{Name: name, Shape: shape, Cubes: cubes}
	return true, nil
}

func (b *memBackend) Destroy(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.slices, name)
	return nil
}

func (b *memBackend) Slices() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.slices))
	for n := range b.slices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (b *memBackend) Info() fleet.PodInfo { return fleet.PodInfo{Slices: b.Slices()} }

func (b *memBackend) intents() map[string]fleet.SliceIntent {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]fleet.SliceIntent, len(b.slices))
	for n, in := range b.slices {
		out[n] = in
	}
	return out
}

// crashImage copies a live state directory the way a crash would freeze
// it: segments first, in LSN order, then the snapshots — so a segment
// compacted away mid-copy is always covered by a snapshot copied after it.
// A file that vanishes under the copy restarts it.
func crashImage(src, dst string) error {
	for attempt := 0; attempt < 100; attempt++ {
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		err := copyMatching(src, dst, ".log")
		if err == nil {
			err = copyMatching(src, dst, ".snap")
		}
		if err == nil {
			return nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return fmt.Errorf("state directory %s never held still", src)
}

func copyMatching(src, dst, suffix string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries { // ReadDir sorts by name, which is LSN order
		if !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func TestConcurrentIntakeEquivalence(t *testing.T) {
	const (
		workers = 8
		opsEach = 200
		seed    = 13
	)
	dir := t.TempDir()
	// Small segments, so rotation and compaction run under the load too.
	store, err := wal.OpenStore(dir, wal.Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m := fleet.NewManager(fleet.Options{Journal: store, Seed: seed})
	defer m.Close()
	// "beat" carries each worker's versioned heartbeat slice and takes
	// pod-wide drains but no replace, so a heartbeat is never wiped.
	pods := []string{"pod0", "pod1", "beat"}
	backends := map[string]*memBackend{}
	for _, name := range pods {
		backends[name] = &memBackend{slices: map[string]fleet.SliceIntent{}}
		if err := m.AddPod(name, backends[name]); err != nil {
			t.Fatal(err)
		}
	}

	// ackedBeat[g] is the last heartbeat version worker g saw acknowledged.
	var ackedBeat [workers]atomic.Int64
	beatName := func(g int) string { return fmt.Sprintf("beat-%d", g) }
	beatShape := func(v int64) topo.Shape { return topo.Shape{X: 4, Y: 4, Z: 4 * int(v)} }

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the daemon's checkpoint ticker, much faster
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if err := store.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	images := 0
	go func() { // crash images at seeded instants
		defer bg.Done()
		rng := sim.Substream(seed, 1000)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(1+rng.Intn(8)) * time.Millisecond):
			}
			var floor [workers]int64
			for g := range floor {
				floor[g] = ackedBeat[g].Load()
			}
			img := filepath.Join(t.TempDir(), "image")
			if err := crashImage(dir, img); err != nil {
				t.Errorf("crash image: %v", err)
				return
			}
			re, err := wal.OpenStore(img, wal.Options{NoSync: true})
			if err != nil {
				t.Errorf("replay crash image: %v", err)
				return
			}
			replayed, err := re.FleetStateCopy()
			_ = re.Close()
			if err != nil {
				t.Errorf("crash image state: %v", err)
				return
			}
			images++
			for g, v := range floor {
				if v == 0 {
					continue
				}
				var got topo.Shape
				if p := replayed.Pods["beat"]; p != nil {
					got = p.Slices[beatName(g)].Shape
				}
				if got.Z < beatShape(v).Z {
					t.Errorf("crash image lost acknowledged heartbeat %d of worker %d: replayed %v", v, g, got)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.Substream(seed, uint64(g))
			for i := 0; i < opsEach; i++ {
				pod := pods[rng.Intn(2)]
				name := fmt.Sprintf("s%d", rng.Intn(5))
				in := fleet.SliceIntent{Name: name, Shape: topo.Shape{X: 4, Y: 4, Z: 4 * (1 + rng.Intn(8))}}
				var err error
				switch k := rng.Intn(24); {
				case k < 6:
					err = m.SetSliceIntent(pod, in)
				case k < 9:
					err = m.RemoveSliceIntent(pod, name)
				case k < 12:
					err = m.DrainOCS(pod, rng.Intn(4))
				case k < 15:
					err = m.UndrainOCS(pod, rng.Intn(4))
				case k < 16:
					err = m.ReplaceIntent(pod, []fleet.SliceIntent{in})
				case k < 17:
					err = m.DrainPod(pods[rng.Intn(3)])
				case k < 18:
					err = m.UndrainPod(pods[rng.Intn(3)])
				default:
					v := ackedBeat[g].Load() + 1
					if err = m.SetSliceIntent("beat", fleet.SliceIntent{Name: beatName(g), Shape: beatShape(v)}); err == nil {
						ackedBeat[g].Store(v)
					}
				}
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if images == 0 {
		t.Error("no crash image was taken while the load ran")
	}

	// Quiesced. The manager's view of drains and slice names against the
	// store's materialized state.
	state, err := store.FleetStateCopy()
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range m.Status().Pods {
		sp := state.Pods[ps.Name]
		if sp == nil {
			t.Fatalf("store has no pod %s", ps.Name)
		}
		var names []string
		for n := range sp.Slices {
			names = append(names, n)
		}
		sort.Strings(names)
		if fmt.Sprint(ps.DesiredSlices) != fmt.Sprint(names) {
			t.Errorf("%s: manager desires %v, store holds %v", ps.Name, ps.DesiredSlices, names)
		}
		if ps.Drained != sp.Drained {
			t.Errorf("%s: manager drained=%v, store drained=%v", ps.Name, ps.Drained, sp.Drained)
		}
		if fmt.Sprint(ps.DrainedOCS) != fmt.Sprint(sp.DrainedOCS) {
			t.Errorf("%s: manager drains OCS %v, store %v", ps.Name, ps.DrainedOCS, sp.DrainedOCS)
		}
	}

	// Lift every drain so the pods realize their intent, then compare what
	// the backends were asked for — shapes included — with the store.
	for _, name := range pods {
		if err := m.UndrainPod(name); err != nil {
			t.Fatal(err)
		}
		for o := 0; o < 4; o++ {
			if err := m.UndrainOCS(name, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for converged := false; !converged; {
		converged = true
		for _, ps := range m.Status().Pods {
			converged = converged && ps.Converged
		}
		if !converged {
			if time.Now().After(deadline) {
				t.Fatalf("fleet did not converge: %+v", m.Status())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if state, err = store.FleetStateCopy(); err != nil {
		t.Fatal(err)
	}
	for _, name := range pods {
		got, want := backends[name].intents(), state.Pods[name].Slices
		if len(got) != len(want) {
			t.Errorf("%s: backend realized %d slices, store holds %d", name, len(got), len(want))
		}
		for n, in := range want {
			if got[n].Shape != in.Shape {
				t.Errorf("%s/%s: manager realized %v, store holds %v", name, n, got[n].Shape, in.Shape)
			}
		}
	}

	// And the reopened directory replays to the same digest.
	m.Close()
	before, err := store.FleetDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := wal.OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	after, err := re.FleetDigest()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("fleet digest %s before close, %s after reopen", before, after)
	}
}
