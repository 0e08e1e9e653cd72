package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lightwave/internal/ocs"
	"lightwave/internal/sim"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// retiredAlign is the settled loss the retired ocs.align gave circuit
// north→south on OCS o of a fabric built from cfg: it evaluated the path's
// intrinsic loss floor a second time, as the mirror settled, then added
// the same seeded open-loop excess and servo residual. The per-switch and
// per-pair seeds are ocs.NewSwitches' and the switch's pair stream's.
func retiredAlign(cfg Config, sw *ocs.Switch, o topo.OCSID, north, south ocs.PortID) float64 {
	floor := sw.IntrinsicLossDB(north, south)
	seed := cfg.OCS.Seed + uint64(o)*0x9E37
	seed = seed*0x9E3779B97F4A7C15 + uint64(north) + 1
	seed = seed*0x9E3779B97F4A7C15 + uint64(south) + 1
	seed = seed*0x9E3779B97F4A7C15 + 0xA11
	r := sim.NewRand(seed)
	excess := 1.5 + 1.0*r.Float64()
	for i := 0; i < 6; i++ {
		excess *= 0.35
	}
	res := 0.02 + 0.02*r.Float64()
	return floor + excess + res
}

// checkRetiredLosses requires every established circuit's loss to be the
// retired two-evaluation align body's, bit for bit, and returns the number
// checked.
func checkRetiredLosses(t *testing.T, f *Fabric) int {
	t.Helper()
	n := 0
	for o, sw := range f.switches {
		for _, c := range sw.Circuits() {
			want := retiredAlign(f.cfg, sw, topo.OCSID(o), c.North, c.South)
			if math.Float64bits(c.InsertionLossDB) != math.Float64bits(want) {
				t.Fatalf("OCS %d %d->%d: loss %v, retired align %v", o, c.North, c.South, c.InsertionLossDB, want)
			}
			n++
		}
	}
	return n
}

// TestAlignFloorIsAdmissions: the floor admission evaluates is the floor
// the switch aligns from, never an older one. A full 64-cube pod is
// composed, one of OCS 0's die-0 mirrors under a live circuit fails and
// its port is remapped to a spare, and the pod is composed again; both
// times every circuit's loss equals the retired align body's, which
// evaluated the floor afresh as the mirror settled, and the remapped
// circuit's loss moved with its mirror.
func TestAlignFloorIsAdmissions(t *testing.T) {
	f := newFabric(t, 64)
	shape := topo.Shape{X: 16, Y: 16, Z: 16}
	if _, err := f.ComposeSlice("pod", shape, seq(64)); err != nil {
		t.Fatal(err)
	}
	if n := checkRetiredLosses(t, f); n != 64*topo.NumOCS {
		t.Fatalf("%d circuits checked, want %d", n, 64*topo.NumOCS)
	}
	sw := f.switches[0]
	var lost ocs.Circuit
	for m := 0; lost.InsertionLossDB == 0; m++ {
		dropped, repaired, err := sw.FailMirror(0, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(dropped) > 0 && repaired {
			lost = dropped[0]
		}
	}
	if err := f.DestroySlice("pod"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("pod", shape, seq(64)); err != nil {
		t.Fatal(err)
	}
	checkRetiredLosses(t, f)
	for _, c := range sw.Circuits() {
		if c.North == lost.North && c.InsertionLossDB == lost.InsertionLossDB {
			t.Fatalf("circuit %d->%d kept loss %v through a mirror remap", c.North, c.South, c.InsertionLossDB)
		}
	}
}

// TestRefusedTransitionLeavesNoFloor: on the 13 km plant, a compose
// refused for budget, and one admitted but refused by a failed port, do
// not change what the next accepted compose programs: its circuits and
// their losses equal those of the same compose on a fabric that saw
// neither refusal.
func TestRefusedTransitionLeavesNoFloor(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.FiberKM = longFiberKM
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The first refused pair, the first two admitted ones, over cubes
	// 0..7, so an admitted pair can be refused by a port of the other.
	var refused, admitted [][]int
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			_, err := probe.validateBudgets(composeReqs(t, shape, []int{a, b}))
			switch {
			case errors.Is(err, ErrLinkBudget):
				refused = append(refused, []int{a, b})
			case err != nil:
				t.Fatal(err)
			default:
				admitted = append(admitted, []int{a, b})
			}
		}
	}
	var accepted, blocked []int // disjoint admitted pairs
	for _, p := range admitted {
		for _, q := range admitted {
			if p[0] != q[0] && p[0] != q[1] && p[1] != q[0] && p[1] != q[1] {
				accepted, blocked = p, q
			}
		}
	}
	if len(refused) == 0 || accepted == nil {
		t.Fatalf("13 km plant: %d refused pairs, %d admitted: need both", len(refused), len(admitted))
	}
	// A port of OCS 5 only blocked's circuits use.
	var port ocs.PortID = -1
	for _, r := range composeReqs(t, shape, blocked) {
		if r.OCS == 5 {
			port = ocs.PortID(r.North)
		}
	}

	build := func(refusals bool) *Fabric {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.switches[5].FailPort(port); err != nil {
			t.Fatal(err)
		}
		if refusals {
			if _, err := f.ComposeSlice("x", shape, refused[0]); !errors.Is(err, ErrLinkBudget) {
				t.Fatalf("compose %v: err = %v, want ErrLinkBudget", refused[0], err)
			}
			if _, err := f.ComposeSlice("x", shape, blocked); !errors.Is(err, ocs.ErrPortFailed) {
				t.Fatalf("compose %v over failed port %d: err = %v, want ErrPortFailed", blocked, port, err)
			}
		}
		if _, err := f.ComposeSlice("y", shape, accepted); err != nil {
			t.Fatal(err)
		}
		return f
	}
	got, want := build(true), build(false)
	for o := range got.switches {
		g, w := got.switches[o].Circuits(), want.switches[o].Circuits()
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("OCS %d after refusals: %v, alone %v", o, g, w)
		}
		for i := range g {
			if math.Float64bits(g[i].InsertionLossDB) != math.Float64bits(w[i].InsertionLossDB) {
				t.Fatalf("OCS %d circuit %d->%d: loss %v after refusals, %v alone", o, g[i].North, g[i].South, g[i].InsertionLossDB, w[i].InsertionLossDB)
			}
		}
	}
}

// TestComposeWorkCounts pins what one compose + destroy costs once the
// fabric's buffers exist: a few allocations per slice and none per
// circuit, where the map-based switch transaction grew per-OCS maps, loss
// map entries and a result slice with every circuit; and one
// ocs.reconfigurations per circuit established.
func TestComposeWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		cubes     int
		shape     topo.Shape
		maxAllocs float64
	}{
		{1, topo.Shape{X: 4, Y: 4, Z: 4}, 15},
		{2, topo.Shape{X: 4, Y: 4, Z: 8}, 16},
		{8, topo.Shape{X: 4, Y: 8, Z: 16}, 19},
	} {
		t.Run(fmt.Sprintf("cubes=%d", tc.cubes), func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.Metrics = telemetry.NewRegistry()
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reconf := cfg.Metrics.Counter("ocs.reconfigurations")
			var circuits int64
			allocs := testing.AllocsPerRun(20, func() {
				s, err := f.ComposeSlice("s", tc.shape, seq(tc.cubes))
				if err != nil {
					t.Fatal(err)
				}
				circuits += int64(len(s.Circuits))
				if err := f.DestroySlice("s"); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.maxAllocs {
				t.Errorf("compose + destroy: %v allocs, want ≤ %v", allocs, tc.maxAllocs)
			}
			if got := reconf.Value(); got != circuits || circuits != 21*48*int64(tc.cubes) {
				t.Errorf("ocs.reconfigurations = %d over %d circuits established, want equal and 48 per cube", got, circuits)
			}
		})
	}
}
