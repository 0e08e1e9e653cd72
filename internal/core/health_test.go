package core

import (
	"bytes"
	"errors"
	"log/slog"
	"math"
	"slices"
	"strings"
	"testing"

	"lightwave/internal/ocs"
	"lightwave/internal/topo"
)

func TestCubeSwapOnFailure(t *testing.T) {
	f := newFabric(t, 8)
	s, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := f.MarkCubeFailed(1)
	if err != nil {
		t.Fatal(err)
	}
	if rc < 4 {
		t.Fatalf("replacement = %d, want a previously free cube", rc)
	}
	// The slice now runs on the replacement; its torus is fully wired.
	s, _ = f.GetSlice("job")
	for _, c := range s.Cubes {
		if c == 1 {
			t.Fatal("failed cube still in slice")
		}
	}
	for _, r := range s.Circuits {
		sw, _ := f.Switch(r.OCS)
		if got, ok := sw.ConnectionOf(f.PortFor(r.OCS, r.North)); !ok || got != f.PortFor(r.OCS, r.South) {
			t.Fatalf("circuit ocs=%d %d->%d missing after swap", r.OCS, r.North, r.South)
		}
	}
	// Exactly 48 circuits per cube touch the swap; the rest are original.
	if !f.CubeHealthy(rc) {
		t.Fatal("replacement unhealthy")
	}
	if f.CubeHealthy(1) {
		t.Fatal("failed cube still healthy")
	}
}

func TestSwapPreservesOtherSlices(t *testing.T) {
	f := newFabric(t, 12)
	_, err := f.ComposeSlice("a", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.ComposeSlice("b", topo.Shape{X: 4, Y: 4, Z: 16}, []int{4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.MarkCubeFailed(0); err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Circuits {
		sw, _ := f.Switch(r.OCS)
		if got, ok := sw.ConnectionOf(f.PortFor(r.OCS, r.North)); !ok || got != f.PortFor(r.OCS, r.South) {
			t.Fatal("slice b disturbed by slice a's swap")
		}
	}
}

func TestSwapWithoutSpares(t *testing.T) {
	f := newFabric(t, 2)
	if _, err := f.ComposeSlice("all", topo.Shape{X: 4, Y: 4, Z: 8}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	_, err := f.MarkCubeFailed(0)
	if !errors.Is(err, ErrNoSpareCube) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailFreeCubeNoSwap(t *testing.T) {
	f := newFabric(t, 4)
	rc, err := f.MarkCubeFailed(2)
	if err != nil {
		t.Fatal(err)
	}
	if rc != -1 {
		t.Fatalf("rc = %d for a free cube", rc)
	}
	if err := f.RepairCube(2); err != nil {
		t.Fatal(err)
	}
	if !f.CubeHealthy(2) {
		t.Fatal("cube not healthy after repair")
	}
}

func TestHealthErrors(t *testing.T) {
	f := newFabric(t, 4)
	if _, err := f.MarkCubeFailed(-1); !errors.Is(err, ErrCubeRange) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.MarkCubeFailed(50); !errors.Is(err, ErrNotInstalled) {
		t.Errorf("err = %v", err)
	}
	if err := f.RepairCube(99); !errors.Is(err, ErrCubeRange) {
		t.Errorf("err = %v", err)
	}
	if f.CubeHealthy(99) {
		t.Error("out-of-range cube healthy")
	}
}

func TestBERMonitoringAlerts(t *testing.T) {
	cfg := DefaultConfig(4)
	var buf bytes.Buffer
	cfg.Log = slog.New(slog.NewTextHandler(&buf, nil))
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy readings: two decades under the KP4 threshold (Fig 13).
	for i := 0; i < 30; i++ {
		if anom, err := f.ObserveLinkBER(3, 7, 2e-6); err != nil || anom {
			t.Fatalf("healthy BER: anomalous %t, err %v", anom, err)
		}
	}
	// A reading above the KP4 threshold must write one Error record
	// naming the link.
	if anom, err := f.ObserveLinkBER(3, 7, 5e-4); err != nil || !anom {
		t.Fatalf("threshold breach: anomalous %t, err %v", anom, err)
	}
	recs := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(recs) != 1 || !strings.Contains(recs[0], " level=ERROR ") || !strings.Contains(recs[0], " ocs=3 cube=7 ") {
		t.Fatalf("records:\n%s", buf.String())
	}
}

func TestBERDetectorsPerLink(t *testing.T) {
	f := newFabric(t, 4)
	for _, o := range []topo.OCSID{0, 1} {
		if _, err := f.ObserveLinkBER(o, 0, 1e-6); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.berDetectors) != 2 {
		t.Fatalf("%d detectors", len(f.berDetectors))
	}
}

// TestObserveLinkBERRefusesBadSamples: a sample naming no switch, a cube
// index outside the pod or a BER that is not a probability is refused,
// and no detector is created for it.
func TestObserveLinkBERRefusesBadSamples(t *testing.T) {
	f := newFabric(t, 4)
	if _, err := f.ObserveLinkBER(0, 0, 1e-6); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		o    topo.OCSID
		cube int
		ber  float64
	}{
		{topo.NumOCS, 0, 1e-6},
		{-1, 0, 1e-6},
		{0, 64, 1e-6},
		{0, -1, 1e-6},
		{0, 1, 0},
		{0, 1, -1e-6},
		{0, 1, 1},
		{0, 1, 5},
		{0, 1, math.NaN()},
		{0, 0, math.Inf(1)},
	} {
		if _, err := f.ObserveLinkBER(c.o, c.cube, c.ber); err == nil {
			t.Errorf("ocs %d cube %d ber %g accepted", c.o, c.cube, c.ber)
		}
		if len(f.berDetectors) != 1 {
			t.Fatalf("ocs %d cube %d ber %g: %d detectors, want 1", c.o, c.cube, c.ber, len(f.berDetectors))
		}
	}
	// The refused samples never reached the live detector either.
	if mean, _ := f.berDetectors["ber/ocs0/cube0"].Baseline(); mean != 1e-6 {
		t.Errorf("detector baseline %g, want 1e-6", mean)
	}
}

// TestTransitionsLeaveDarkCircuitsDark: a cube swap, a reshape and a link
// repair succeed on a slice whose circuits a driver-board failure partly
// dropped. Each programs only what it changes: a dropped circuit the slice
// keeps stays dark, and still counts toward the worst margin, until the
// board is replaced and an ensure of the intent heals it.
func TestTransitionsLeaveDarkCircuitsDark(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(*Fabric) error
	}{
		{"swap", func(f *Fabric) error { _, err := f.MarkCubeFailed(0); return err }},
		{"reshape", func(f *Fabric) error {
			_, err := f.ReshapeSlice("job", topo.Shape{X: 4, Y: 8, Z: 8}, nil)
			return err
		}},
		{"repair-link", func(f *Fabric) error { _, err := f.RepairLink(32, 1); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, dark, o, board := darkenedFabric(t)
			if err := tc.op(f); err != nil {
				t.Fatalf("%s on a slice with dark circuits: %v", tc.name, err)
			}
			s, _ := f.GetSlice("job")
			kept, worst := 0, 1e9
			for _, r := range s.Circuits {
				bud, err := f.circuitBudget(r)
				if err != nil {
					t.Fatal(err)
				}
				worst = min(worst, bud.MarginDB)
				switch {
				case dark[r] && f.circuitLive(r):
					t.Errorf("dropped circuit %+v re-programmed", r)
				case dark[r]:
					kept++
				case !f.circuitLive(r):
					t.Errorf("circuit %+v dead", r)
				}
			}
			if kept == 0 {
				t.Fatal("the slice kept none of the dropped circuits")
			}
			if s.WorstMarginDB != worst {
				t.Errorf("worst margin %v dB, want %v dB over every listed circuit", s.WorstMarginDB, worst)
			}

			if err := f.switches[o].ReplaceDriverBoard(board); err != nil {
				t.Fatal(err)
			}
			if _, changed, err := f.EnsureSlice("job", s.Shape, nil); err != nil || !changed {
				t.Fatalf("heal after the board swap: changed=%v err=%v", changed, err)
			}
			checkInvariants(t, f, 0)
		})
	}
}

// darkenedFabric composes "job" as 4x4x16 on cubes 0-3 of a fabric whose
// one free cube is 40, and fails one driver board of an X-dimension OCS,
// which drops some of the slice's circuits off cube 0 but not the circuit
// cube 40 would need there. It returns the fabric, the dropped circuits,
// and the OCS and board.
func darkenedFabric(t *testing.T) (*Fabric, map[topo.CircuitReq]bool, topo.OCSID, int) {
	t.Helper()
	for o := topo.OCSID(0); o < topo.FaceLinks; o++ {
		for b := 0; b < ocs.DefaultConfig().DriverBoards; b++ {
			f := newFabric(t, 4)
			if err := f.InstallCube(40); err != nil {
				t.Fatal(err)
			}
			s, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			probe, err := f.ComposeSlice("probe", topo.Shape{X: 4, Y: 4, Z: 4}, []int{40})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.switches[o].FailDriverBoard(b); err != nil {
				t.Fatal(err)
			}
			dark := map[topo.CircuitReq]bool{}
			for _, r := range s.Circuits {
				if !f.circuitLive(r) {
					dark[r] = true
				}
			}
			spareOK := !slices.ContainsFunc(probe.Circuits, func(r topo.CircuitReq) bool { return !f.circuitLive(r) })
			if err := f.DestroySlice("probe"); err != nil {
				t.Fatal(err)
			}
			if spareOK && slices.ContainsFunc(s.Circuits, func(r topo.CircuitReq) bool { return dark[r] && r.North != 0 }) {
				return f, dark, o, b
			}
		}
	}
	t.Fatal("no single driver board drops the slice's circuits and spares cube 40's")
	return nil, nil, 0, 0
}
