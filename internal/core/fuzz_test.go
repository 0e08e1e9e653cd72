package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"lightwave/internal/sim"
	"lightwave/internal/topo"
)

// TestControlPlaneFuzz drives the fabric through long random sequences of
// compose / destroy / reshape / fail / repair / install / link-repair
// operations and checks global invariants after every step: circuit
// accounting matches across slices and hardware, cube ownership is
// exclusive, every slice's torus is fully wired, and the fabric's state
// export imports into a fresh fabric indistinguishable from it. This is
// the "everything breaks at scale" test (§6).
func TestControlPlaneFuzz(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			fuzzRun(t, seed, 150)
		})
	}
}

func fuzzRun(t *testing.T, seed uint64, steps int) {
	t.Helper()
	rng := sim.NewRand(seed)
	cfg := DefaultConfig(12)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	nextName := 0

	randShapeFor := func(cubes int) (topo.Shape, bool) {
		shapes := topo.ShapesFor(cubes)
		if len(shapes) == 0 {
			return topo.Shape{}, false
		}
		return shapes[rng.Intn(len(shapes))], true
	}

	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0, 1: // compose
			free := f.FreeCubes()
			if len(free) == 0 {
				continue
			}
			n := 1 + rng.Intn(len(free))
			// Clamp to a handful for speed.
			if n > 4 {
				n = 4
			}
			shape, ok := randShapeFor(n)
			if !ok {
				continue
			}
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			name := fmt.Sprintf("job%d", nextName)
			nextName++
			if _, err := f.ComposeSlice(name, shape, free[:n]); err == nil {
				names = append(names, name)
			}
		case 2: // destroy
			if len(names) == 0 {
				continue
			}
			i := rng.Intn(len(names))
			if err := f.DestroySlice(names[i]); err != nil {
				t.Fatalf("step %d destroy: %v", step, err)
			}
			names = append(names[:i], names[i+1:]...)
		case 3: // reshape (same cubes)
			if len(names) == 0 {
				continue
			}
			name := names[rng.Intn(len(names))]
			s, err := f.GetSlice(name)
			if err != nil {
				t.Fatal(err)
			}
			shape, ok := randShapeFor(len(s.Cubes))
			if !ok {
				continue
			}
			// Reshape may be legitimately rejected (e.g. the slice kept a
			// failed cube because no spare was available); rejection must
			// be atomic, which the invariant check below verifies.
			_, _ = f.ReshapeSlice(name, shape, nil)
		case 4: // fail a cube
			c := rng.Intn(16)
			_, _ = f.MarkCubeFailed(c) // may legitimately fail (no spares)
		case 5: // repair a cube
			c := rng.Intn(16)
			_ = f.RepairCube(c)
		case 6: // install a cube (a no-op once it is installed)
			_ = f.InstallCube(rng.Intn(16))
		case 7: // repatch a cube's fibers onto a spare port
			_, _ = f.RepairLink(topo.OCSID(rng.Intn(topo.NumOCS)), rng.Intn(16))
		}
		checkInvariants(t, f, step)
		checkExportImport(t, f, cfg, step)
	}
}

// checkExportImport imports f's state export into a freshly built fabric
// and requires the copy to be indistinguishable from f.
func checkExportImport(t *testing.T, f *Fabric, cfg Config, step int) {
	t.Helper()
	want := f.ExportState()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ImportState(want); err != nil {
		t.Fatalf("step %d: import: %v", step, err)
	}
	if got := g.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: export of the import differs:\n got %+v\nwant %+v", step, got, want)
	}
	if g.TotalCircuits() != f.TotalCircuits() {
		t.Fatalf("step %d: import has %d circuits, want %d", step, g.TotalCircuits(), f.TotalCircuits())
	}
	for _, s := range f.Slices() {
		c, err := g.GetSlice(s.Name)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !reflect.DeepEqual(c.Circuits, s.Circuits) || math.Float64bits(c.WorstMarginDB) != math.Float64bits(s.WorstMarginDB) {
			t.Fatalf("step %d: slice %q imported as %d circuits, worst %v dB; want %d, %v dB",
				step, s.Name, len(c.Circuits), c.WorstMarginDB, len(s.Circuits), s.WorstMarginDB)
		}
	}
	for o := range f.switches {
		if got, want := g.switches[o].SparesLeft(), f.switches[o].SparesLeft(); got != want {
			t.Fatalf("step %d: OCS %d has %d spare ports left after import, want %d", step, o, got, want)
		}
	}
}

// checkInvariants asserts the fabric's global consistency.
func checkInvariants(t *testing.T, f *Fabric, step int) {
	t.Helper()
	// 1. Circuit accounting: the union of slice circuits equals the live
	// hardware circuits exactly.
	want := map[topo.CircuitReq]int{}
	total := 0
	for _, s := range f.Slices() {
		for _, r := range s.Circuits {
			want[r]++
			total++
		}
	}
	if got := f.TotalCircuits(); got != total {
		t.Fatalf("step %d: hardware has %d circuits, slices expect %d", step, got, total)
	}
	for r, n := range want {
		if n != 1 {
			t.Fatalf("step %d: circuit %+v claimed by %d slices", step, r, n)
		}
		sw, err := f.Switch(r.OCS)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := sw.ConnectionOf(f.PortFor(r.OCS, r.North))
		if !ok || got != f.PortFor(r.OCS, r.South) {
			t.Fatalf("step %d: circuit %+v missing on hardware", step, r)
		}
	}
	// 2. Cube ownership: every slice's cubes are owned by it, exclusively.
	owner := map[int]string{}
	for _, s := range f.Slices() {
		for _, c := range s.Cubes {
			if prev, dup := owner[c]; dup {
				t.Fatalf("step %d: cube %d in slices %q and %q", step, c, prev, s.Name)
			}
			owner[c] = s.Name
		}
	}
	// 3. Free cubes are not in any slice.
	for _, c := range f.FreeCubes() {
		if s, busy := owner[c]; busy {
			t.Fatalf("step %d: free cube %d owned by %q", step, c, s)
		}
	}
}
