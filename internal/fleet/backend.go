package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"lightwave/internal/core"
	"lightwave/internal/sched"
	"lightwave/internal/topo"
)

// PodInfo is a backend's observable state, used for status reporting.
type PodInfo struct {
	InstalledCubes int
	FreeCubes      int
	Slices         []string
	Circuits       int
}

// Backend is the per-pod control surface the reconciler drives. Every
// method must be idempotent and safe for concurrent use: one reconcile
// worker mutates the pod while status snapshots read it.
type Backend interface {
	// Ensure makes the named slice exist with the given shape; an empty
	// cube list lets the backend place the slice. Reports whether any
	// hardware state changed.
	Ensure(name string, shape topo.Shape, cubes []int) (changed bool, err error)
	// Destroy tears a slice down; destroying an absent slice is a no-op.
	Destroy(name string) error
	// Slices returns the names of the realized slices, sorted.
	Slices() []string
	// Info snapshots the pod for status reporting.
	Info() PodInfo
}

// FabricBackend adapts a core.Fabric (which is not concurrency-safe) to the
// Backend interface, serializing access with a mutex and delegating
// placement of un-pinned intents to a sched.Placer over the live free-cube
// set.
type FabricBackend struct {
	mu      sync.Mutex
	f       *core.Fabric
	placer  sched.Placer
	nextJob int
}

// NewFabricBackend wraps a fabric; a nil placer defaults to
// sched.Reconfigurable (any free cubes — the lightwave fabric connects them
// regardless of position).
func NewFabricBackend(f *core.Fabric, placer sched.Placer) *FabricBackend {
	if placer == nil {
		placer = sched.Reconfigurable{}
	}
	return &FabricBackend{f: f, placer: placer}
}

// Ensure implements Backend.
func (b *FabricBackend) Ensure(name string, shape topo.Shape, cubes []int) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(cubes) > 0 {
		// Pinned placement. A changed cube set is a migration: tear the old
		// slice down before recreating (checkpoint/restore semantics), so
		// chained cube handoffs between slices — even cyclic ones from a
		// compaction pass — unwind across the reconciler's ensure sweeps.
		if existing, err := b.f.GetSlice(name); err == nil && !sameCubes(existing.Cubes, cubes) {
			if derr := b.f.DestroySlice(name); derr != nil {
				return false, derr
			}
			_, _, err := b.f.EnsureSlice(name, shape, cubes)
			return true, err
		}
	}
	if len(cubes) == 0 {
		existing, err := b.f.GetSlice(name)
		switch {
		case err == nil && existing.Shape.Cubes() == shape.Cubes():
			// Same cube count: EnsureSlice reuses the current cubes
			// (reshaping in place if the shape changed).
		default:
			// New slice, or a resize that needs fresh placement.
			if err == nil {
				if derr := b.f.DestroySlice(name); derr != nil {
					return false, derr
				}
			}
			placed, perr := b.place(name, shape.Cubes())
			if perr != nil {
				return err == nil, perr
			}
			cubes = placed
		}
	}
	_, changed, err := b.f.EnsureSlice(name, shape, cubes)
	return changed, err
}

// sameCubes reports whether two cube lists are the same set.
func sameCubes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// place picks cubes for a new slice by mirroring the fabric's free-cube set
// into a sched.Pod and running the placement policy over it.
func (b *FabricBackend) place(name string, n int) ([]int, error) {
	mirror, err := sched.FullPodWithFree(b.f.FreeCubes())
	if err != nil {
		return nil, err
	}
	b.nextJob++
	cubes, err := b.placer.Place(mirror, b.nextJob, n)
	if err != nil {
		return nil, fmt.Errorf("fleet: placing %q (%d cubes, policy %s): %w",
			name, n, b.placer.Name(), err)
	}
	return cubes, nil
}

// FailCube marks a cube failed on the live fabric, mutex-serialized against
// the reconcile worker. The fabric auto-swaps a spare into any slice that
// owned the cube; the return value is the replacement cube id, or -1 when
// the cube was unowned (see core.Fabric.MarkCubeFailed).
func (b *FabricBackend) FailCube(cube int) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f.MarkCubeFailed(cube)
}

// RepairCube returns a failed cube to service on the live fabric.
func (b *FabricBackend) RepairCube(cube int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f.RepairCube(cube)
}

// CubeHealthy reports a cube's health on the live fabric.
func (b *FabricBackend) CubeHealthy(cube int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f.CubeHealthy(cube)
}

// Destroy implements Backend.
func (b *FabricBackend) Destroy(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.f.DestroySlice(name); err != nil && !errors.Is(err, core.ErrNoSlice) {
		return err
	}
	return nil
}

// Slices implements Backend.
func (b *FabricBackend) Slices() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var names []string
	for _, sl := range b.f.Slices() {
		names = append(names, sl.Name)
	}
	return names
}

// Info implements Backend.
func (b *FabricBackend) Info() PodInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	info := PodInfo{
		InstalledCubes: b.f.InstalledCubes(),
		FreeCubes:      len(b.f.FreeCubes()),
		Circuits:       b.f.TotalCircuits(),
	}
	for _, sl := range b.f.Slices() {
		info.Slices = append(info.Slices, sl.Name)
	}
	return info
}
