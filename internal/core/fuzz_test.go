package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"lightwave/internal/sim"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// longFiberKM sizes a plant astride admission: on it the fuzz's composes,
// reshapes and cube swaps are refused for budget as well as admitted.
const longFiberKM = 13

// TestControlPlaneFuzz drives the fabric through long random sequences of
// compose / destroy / reshape / fail / repair / install / link-repair /
// ensure operations and checks global invariants after every step:
// circuit accounting matches across slices and hardware, cube ownership is
// exclusive, every slice's torus is fully wired, a refused operation
// leaves the fabric as it was, and the fabric's state export imports into
// a fresh fabric indistinguishable from it. This is the "everything breaks
// at scale" test (§6). Seeds 1–3 run the default plant; the long-fiber
// seed puts operations on both sides of admission.
func TestControlPlaneFuzz(t *testing.T) {
	long := DefaultConfig(12)
	long.FiberKM = longFiberKM
	for _, tc := range []struct {
		name string
		cfg  Config
		seed uint64
	}{
		{"seed1", DefaultConfig(12), 1},
		{"seed2", DefaultConfig(12), 2},
		{"seed3", DefaultConfig(12), 3},
		{"long-fiber-seed7", long, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fuzzRun(t, tc.cfg, tc.seed, 150, nil)
		})
	}
}

// fuzzRun drives one seeded sequence on a fabric built from cfg, with a
// metrics registry attached; each, when set, sees the fabric after every
// operation.
func fuzzRun(t *testing.T, cfg Config, seed uint64, steps int, each func(*Fabric)) {
	t.Helper()
	rng := sim.NewRand(seed)
	cfg.Metrics = telemetry.NewRegistry()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	nextName := 0
	drop := func(name string) {
		names = slices.DeleteFunc(names, func(n string) bool { return n == name })
	}

	randShapeFor := func(cubes int) (topo.Shape, bool) {
		shapes := topo.ShapesFor(cubes)
		if len(shapes) == 0 {
			return topo.Shape{}, false
		}
		return shapes[rng.Intn(len(shapes))], true
	}

	for step := 0; step < steps; step++ {
		before := viewOf(f)
		var refused error // a compose, reshape or ensure that must be all-or-nothing
		failedCube := -1  // a cube whose MarkCubeFailed was refused
		switch rng.Intn(9) {
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
			if _, refused = f.ComposeSlice(name, shape, free[:n]); refused == nil {
				names = append(names, name)
			}
		case 2: // destroy
			if len(names) == 0 {
				continue
			}
			name := names[rng.Intn(len(names))]
			if err := f.DestroySlice(name); err != nil {
				t.Fatalf("step %d destroy: %v", step, err)
			}
			drop(name)
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
			// failed cube because no spare was available, or a new circuit
			// is refused admission).
			_, refused = f.ReshapeSlice(name, shape, nil)
		case 4: // fail a cube
			c := rng.Intn(16)
			if _, err := f.MarkCubeFailed(c); err != nil { // no spare, or the swap refused
				failedCube = c
			}
		case 5: // repair a cube
			c := rng.Intn(16)
			_ = f.RepairCube(c)
		case 6: // install a cube (a no-op once it is installed)
			_ = f.InstallCube(rng.Intn(16))
		case 7: // repatch a cube's fibers onto a spare port
			o, c := topo.OCSID(rng.Intn(topo.NumOCS)), rng.Intn(16)
			owner := f.owner[c]
			if _, err := f.RepairLink(o, c); err != nil && owner != "" {
				// The failed port's circuits stay dark when the spare is
				// refused. What a slice owns then is ROADMAP item 3's
				// open drop rule, so retire the slice as the scheduler
				// would.
				if err := f.DestroySlice(owner); err != nil {
					t.Fatalf("step %d destroy after refused link repair: %v", step, err)
				}
				drop(owner)
			}
		case 8: // ensure a slice's intent: unchanged (heal or no-op) or reshaped
			if len(names) == 0 {
				continue
			}
			s := f.slices[names[rng.Intn(len(names))]]
			shape := s.Shape
			if rng.Intn(2) == 0 {
				if sh, ok := randShapeFor(len(s.Cubes)); ok {
					shape = sh
				}
			}
			_, _, refused = f.EnsureSlice(s.Name, shape, nil)
		}
		checkInvariants(t, f, step)
		if refused != nil {
			if got := viewOf(f); !reflect.DeepEqual(got, before) {
				t.Fatalf("step %d: refused op (%v) changed the fabric:\n got %+v\nwant %+v", step, refused, got, before)
			}
		}
		if failedCube >= 0 {
			// A refused swap may only record the cube's failure.
			if st := &before.State; slices.Contains(st.Installed, failedCube) && !slices.Contains(st.Failed, failedCube) {
				st.Failed = append(st.Failed, failedCube)
				sort.Ints(st.Failed)
			}
			if got := viewOf(f); !reflect.DeepEqual(got, before) {
				t.Fatalf("step %d: refused swap of cube %d changed more than its health:\n got %+v\nwant %+v",
					step, failedCube, got, before)
			}
		}
		checkExportImport(t, f, cfg, step)
		if each != nil {
			each(f)
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the running implementation")

// TestTransitionGolden replays the default-plant fuzz seeds and pins, after
// every operation, one digest of the state export, each slice's fields
// (the worst margin by its bits), the live circuit count and the metrics
// text. It was recorded before compose, reshape, cube swap, link repair
// and ensure-heal went through one transition body, which must leave every
// admitted operation exactly where the five bodies did.
func TestTransitionGolden(t *testing.T) {
	var got strings.Builder
	for _, seed := range []uint64{1, 2, 3} {
		op := 0
		fuzzRun(t, DefaultConfig(12), seed, 150, func(f *Fabric) {
			h := sha256.New()
			fmt.Fprintf(h, "%+v\n%d\n", viewOf(f), f.TotalCircuits())
			for _, line := range strings.SplitAfter(f.Metrics().Text(), "\n") {
				// The golden was recorded while ocs.Switch.Apply connected
				// a batch in map order, so the float sum behind the
				// insertion-loss mean differed in its last bits from run to
				// run; it connects in north-port order now, and the mean
				// stays out of the digest its count and buckets are in.
				if !strings.HasPrefix(line, "ocs.insertion_loss_db_mean ") {
					h.Write([]byte(line))
				}
			}
			fmt.Fprintf(&got, "seed%d op%d %x\n", seed, op, h.Sum(nil)[:8])
			op++
		})
	}
	path := filepath.Join("testdata", "transition.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("%s: first difference at line %d: got %q", path, i+1, gotLines[i])
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}

// fabricView is what a refused operation must leave bit-equal: the state
// export and every slice's fields, the worst margin by its bits.
type fabricView struct {
	State  FabricState
	Slices []sliceView
}

type sliceView struct {
	Slice
	WorstBits uint64
}

func viewOf(f *Fabric) fabricView {
	v := fabricView{State: f.ExportState()}
	for _, s := range f.Slices() {
		c := Slice{Name: s.Name, Shape: s.Shape, Cubes: slices.Clone(s.Cubes), Circuits: slices.Clone(s.Circuits)}
		v.Slices = append(v.Slices, sliceView{c, math.Float64bits(s.WorstMarginDB)})
	}
	return v
}

// checkExportImport imports f's state export into a freshly built fabric
// and requires the copy to be indistinguishable from f.
func checkExportImport(t *testing.T, f *Fabric, cfg Config, step int) {
	t.Helper()
	want := f.ExportState()
	cfg.Metrics = nil // the copy must not count into f's registry
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
