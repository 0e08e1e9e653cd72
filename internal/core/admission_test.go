package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lightwave/internal/dsp"
	"lightwave/internal/ocs"
	"lightwave/internal/optics"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// TestAdmissionThresholdMatchesPostFEC holds the per-circuit check to the
// predicate it replaced: over every identity-wired port pair of every OCS,
// "pre-FEC BER > MaxInputBER" rejects exactly the links "post-FEC BER >
// 1e-12" rejected. The default plant admits every pair; the long-fiber
// plant sits astride the threshold so both verdicts are exercised.
func TestAdmissionThresholdMatchesPostFEC(t *testing.T) {
	rx := dsp.DefaultReceiver()
	for _, km := range []float64{DefaultConfig(64).FiberKM, 26.5} {
		cfg := DefaultConfig(64)
		cfg.FiberKM = km
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		admitted, rejected := 0, 0
		for o := 0; o < topo.NumOCS; o++ {
			for n := 0; n < 64; n++ {
				for s := 0; s < 64; s++ {
					r := topo.CircuitReq{OCS: topo.OCSID(o), North: n, South: s}
					bud, err := f.circuitBudget(r)
					if err != nil {
						t.Fatal(err)
					}
					mpi := dsp.MPICondition{MPIDB: bud.MPIDB, OIM: true}
					oldReject := rx.PostFECBER(bud.RxPowerDBm, mpi, f.rx.stack) > maxPostFECBER
					newReject := f.rx.receiver.BER(bud.RxPowerDBm, mpi) > f.rx.maxBER
					if oldReject != newReject {
						t.Fatalf("%.2f km, circuit %+v: post-FEC form rejects=%v, threshold form rejects=%v",
							km, r, oldReject, newReject)
					}
					if oldReject {
						rejected++
					} else {
						admitted++
					}
				}
			}
		}
		if km == DefaultConfig(64).FiberKM && rejected != 0 {
			t.Errorf("default plant: %d port pairs rejected, want all admitted", rejected)
		}
		if km != DefaultConfig(64).FiberKM && (admitted == 0 || rejected == 0) {
			t.Errorf("%.2f km plant is one-sided: %d admitted, %d rejected", km, admitted, rejected)
		}
	}
}

// TestAdmissionMatchesLinkBudget holds the per-circuit admission path — the
// fabric's prepared bidi path and prepared receiver — to a link assembled
// and a receiver calibrated from scratch for each circuit, bit for bit, over
// every identity-wired port pair of every OCS on three plants: the default
// one, the long-fiber one astride the threshold, and one built with the
// legacy telecom circulator.
func TestAdmissionMatchesLinkBudget(t *testing.T) {
	rx := dsp.DefaultReceiver()
	long, telecom := DefaultConfig(64), DefaultConfig(64)
	long.FiberKM = 26.5
	telecom.Circulator = optics.TelecomCirculator()
	for _, cfg := range []Config{DefaultConfig(64), long, telecom} {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := optics.NewTransceiver(cfg.Transceiver), optics.NewTransceiver(cfg.Transceiver)
		for o := 0; o < topo.NumOCS; o++ {
			sw := f.switches[o]
			for n := 0; n < 64; n++ {
				rl, err := sw.ReturnLossDB(ocs.PortID(n))
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 64; s++ {
					r := topo.CircuitReq{OCS: topo.OCSID(o), North: n, South: s}
					got, err := f.circuitBudget(r)
					if err != nil {
						t.Fatal(err)
					}
					loss := sw.IntrinsicLossDB(ocs.PortID(n), ocs.PortID(s)) + 0.1
					want, err := optics.NewBidiLink(a, b, cfg.Circulator, loss, rl, cfg.FiberKM).BudgetTowardB()
					if err != nil {
						t.Fatal(err)
					}
					gotBER := f.rx.receiver.BER(got.RxPowerDBm, dsp.MPICondition{MPIDB: got.MPIDB, OIM: true})
					wantBER := rx.BER(want.RxPowerDBm, dsp.MPICondition{MPIDB: want.MPIDB, OIM: true})
					for _, q := range [][2]float64{
						{got.PathLossDB, want.PathLossDB},
						{got.RxPowerDBm, want.RxPowerDBm},
						{got.MPIDB, want.MPIDB},
						{got.DispersionPenaltyDB, want.DispersionPenaltyDB},
						{got.MarginDB, want.MarginDB},
						{gotBER, wantBER},
					} {
						if math.Float64bits(q[0]) != math.Float64bits(q[1]) {
							t.Fatalf("%.2f km, %+v, circuit %+v: admission priced %+v (BER %v), a fresh link %+v (BER %v)",
								cfg.FiberKM, cfg.Circulator, r, got, gotBER, want, wantBER)
						}
					}
				}
			}
		}
	}
}

// TestCircuitAdmissionAllocatesNothing: pricing one circuit's budget and
// its pre-FEC BER allocates nothing.
func TestCircuitAdmissionAllocatesNothing(t *testing.T) {
	f := newFabric(t, 4)
	r := topo.CircuitReq{OCS: 7, North: 1, South: 2}
	var ber float64
	allocs := testing.AllocsPerRun(100, func() {
		bud, err := f.circuitBudget(r)
		if err != nil {
			t.Fatal(err)
		}
		ber = f.rx.receiver.BER(bud.RxPowerDBm, dsp.MPICondition{MPIDB: bud.MPIDB, OIM: true})
	})
	if allocs != 0 {
		t.Fatalf("one circuit's budget and BER: %v allocs", allocs)
	}
	if ber <= 0 || ber > f.rx.maxBER {
		t.Fatalf("BER %v outside (0, %v]", ber, f.rx.maxBER)
	}
}

// TestRejectionWording checks the rejection path still reports the
// post-FEC BER (the transfer curve is evaluated there, and only there).
func TestRejectionWording(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FiberKM = 35         // every link far past the FEC's reach …
	cfg.SafetyMarginDB = -50 // … and the margin check out of the way
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := composeReqs(t, topo.Shape{X: 4, Y: 4, Z: 4}, []int{0})
	bud, err := f.circuitBudget(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	postFEC := dsp.DefaultReceiver().PostFECBER(bud.RxPowerDBm, dsp.MPICondition{MPIDB: bud.MPIDB, OIM: true}, f.rx.stack)
	want := fmt.Sprintf("core: insufficient optical link margin: circuit ocs=%d %d->%d post-FEC BER %.2g",
		reqs[0].OCS, reqs[0].North, reqs[0].South, postFEC)
	_, err = f.ComposeSlice("a", topo.Shape{X: 4, Y: 4, Z: 4}, []int{0})
	if !errors.Is(err, ErrLinkBudget) || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
}

func composeReqs(t *testing.T, shape topo.Shape, cubes []int) []topo.CircuitReq {
	t.Helper()
	sl, err := topo.ComposeSlice(shape, cubes)
	if err != nil {
		t.Fatal(err)
	}
	return sl.RequiredCircuits()
}

// checkNoOrphans asserts the "no orphan circuit" invariant after a failed
// operation on a fabric that holds no slice: nothing live on any switch,
// every switch still a partial bijection, every cube free.
func checkNoOrphans(t *testing.T, f *Fabric, cubes int) {
	t.Helper()
	if n := f.TotalCircuits(); n != 0 {
		t.Errorf("%d live circuits that no slice owns", n)
	}
	if n := len(f.Slices()); n != 0 {
		t.Errorf("%d slices recorded", n)
	}
	if n := len(f.FreeCubes()); n != cubes {
		t.Errorf("%d free cubes, want %d", n, cubes)
	}
	for o := 0; o < topo.NumOCS; o++ {
		sw, err := f.Switch(topo.OCSID(o))
		if err != nil {
			t.Fatal(err)
		}
		souths := map[ocs.PortID]ocs.PortID{}
		for _, c := range sw.Circuits() {
			if prev, dup := souths[c.South]; dup {
				t.Errorf("OCS %d: south %d reached from north %d and %d", o, c.South, prev, c.North)
			}
			souths[c.South] = c.North
		}
	}
}

// TestFailedComposeLeavesNoCircuits: a port failure on the last switch
// makes that switch refuse its batch after the 47 before it were
// programmed; the compose must take all of it back, and succeed once the
// link is repaired.
func TestFailedComposeLeavesNoCircuits(t *testing.T) {
	f := newFabric(t, 64)
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	last := topo.OCSID(topo.NumOCS - 1)
	sw, err := f.Switch(last)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.FailPort(3); err != nil {
		t.Fatal(err)
	}
	// The failure must actually bite on this compose.
	uses := false
	for _, r := range composeReqs(t, shape, []int{3, 4}) {
		if r.OCS == last && (r.North == 3 || r.South == 3) {
			uses = true
		}
	}
	if !uses {
		t.Fatalf("slice has no circuit through port 3 of OCS %d", last)
	}

	if _, err := f.ComposeSlice("s", shape, []int{3, 4}); !errors.Is(err, ocs.ErrPortFailed) {
		t.Fatalf("compose over a failed port: err = %v, want ErrPortFailed", err)
	}
	checkNoOrphans(t, f, 64)

	// Repatch cube 3's fibers on that switch to a spare port and retry.
	if _, err := f.RepairLink(last, 3); err != nil {
		t.Fatal(err)
	}
	s, err := f.ComposeSlice("s", shape, []int{3, 4})
	if err != nil {
		t.Fatalf("retry after repair: %v", err)
	}
	if got := f.TotalCircuits(); got != len(s.Circuits) {
		t.Errorf("%d live circuits, slice owns %d", got, len(s.Circuits))
	}
	for _, r := range s.Circuits {
		if !f.circuitLive(r) {
			t.Errorf("circuit %+v not live after retry", r)
		}
	}
}

// TestFailedReshapeLeavesNoOrphans: the same rollback under ReshapeSlice,
// whose fresh circuits go through ocs.ApplyAll too. After the failure the
// only live circuits are ones the slice's record still names.
func TestFailedReshapeLeavesNoOrphans(t *testing.T) {
	f := newFabric(t, 64)
	if _, err := f.ComposeSlice("s", topo.Shape{X: 4, Y: 4, Z: 4}, []int{4}); err != nil {
		t.Fatal(err)
	}
	last := topo.OCSID(topo.NumOCS - 1)
	sw, _ := f.Switch(last)
	if _, err := sw.FailPort(3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReshapeSlice("s", topo.Shape{X: 4, Y: 4, Z: 8}, []int{3, 4}); !errors.Is(err, ocs.ErrPortFailed) {
		t.Fatalf("reshape over a failed port: err = %v, want ErrPortFailed", err)
	}
	s, err := f.GetSlice("s")
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, r := range s.Circuits {
		if f.circuitLive(r) {
			live++
		}
	}
	if got := f.TotalCircuits(); got != live {
		t.Errorf("%d live circuits, only %d of them belong to the slice", got, live)
	}
}

// TestRejectedComposeObservesNoMargins: a compose rejected part-way through
// validation must not leave the margins of the circuits before the bad one
// on fabric.link_margin_db — none of them was programmed.
func TestRejectedComposeObservesNoMargins(t *testing.T) {
	shape, cubes := topo.Shape{X: 4, Y: 4, Z: 8}, []int{0, 1}

	// Learn the worst margin of this slice on this plant, then demand a
	// hair more than it: exactly the worst circuit is rejected.
	probe := newFabric(t, 4)
	ok, err := probe.ComposeSlice("probe", shape, cubes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4)
	cfg.Metrics = telemetry.NewRegistry()
	cfg.SafetyMarginDB = math.Nextafter(ok.WorstMarginDB, math.Inf(1))
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.circuitBudget(ok.Circuits[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.MarginDB < cfg.SafetyMarginDB {
		t.Fatal("the rejected circuit is the first one; the test would not see earlier observations")
	}

	if _, err := f.ComposeSlice("a", shape, cubes); !errors.Is(err, ErrLinkBudget) {
		t.Fatalf("err = %v, want ErrLinkBudget", err)
	}
	margins := cfg.Metrics.Distribution("fabric.link_margin_db")
	if n := margins.Snapshot().N; n != 0 {
		t.Errorf("%d margins observed for a compose that programmed nothing", n)
	}
	if f.TotalCircuits() != 0 {
		t.Error("circuits programmed despite the rejection")
	}

	// An admitted compose observes each of its circuits exactly once.
	cfg2 := DefaultConfig(4)
	cfg2.Metrics = telemetry.NewRegistry()
	f2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f2.ComposeSlice("a", shape, cubes)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg2.Metrics.Distribution("fabric.link_margin_db").Snapshot().N; n != int64(len(s.Circuits)) {
		t.Errorf("%d margins observed for %d programmed circuits", n, len(s.Circuits))
	}
	if math.Float64bits(s.WorstMarginDB) != math.Float64bits(ok.WorstMarginDB) {
		t.Errorf("WorstMarginDB %v differs between identical plants (%v)", s.WorstMarginDB, ok.WorstMarginDB)
	}
}

// BenchmarkValidateBudgets prices admission alone — every circuit's budget
// and pre-FEC BER, nothing programmed — over the 384 circuits of an 8-cube
// slice, reported per circuit.
func BenchmarkValidateBudgets(b *testing.B) {
	f, err := New(DefaultConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	shape, cubes := topo.Shape{X: 4, Y: 8, Z: 16}, seq(8)
	sl, err := topo.ComposeSlice(shape, cubes)
	if err != nil {
		b.Fatal(err)
	}
	reqs := sl.RequiredCircuits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.validateBudgets(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/circuit")
}

// BenchmarkComposeSlice is the in-tree guard on slice admission cost: one
// compose + destroy of a 1-, 2- and 4-cube slice (48 circuits per cube).
// Before the threshold form a 2-cube cycle cost ~3.5 ms, nearly all of it
// the FEC transfer curve re-derived per circuit.
func BenchmarkComposeSlice(b *testing.B) {
	for _, tc := range []struct {
		cubes int
		shape topo.Shape
	}{
		{1, topo.Shape{X: 4, Y: 4, Z: 4}},
		{2, topo.Shape{X: 4, Y: 4, Z: 8}},
		{4, topo.Shape{X: 4, Y: 4, Z: 16}},
	} {
		b.Run(fmt.Sprintf("cubes=%d", tc.cubes), func(b *testing.B) {
			f, err := New(DefaultConfig(8))
			if err != nil {
				b.Fatal(err)
			}
			cubes := seq(tc.cubes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ComposeSlice("s", tc.shape, cubes); err != nil {
					b.Fatal(err)
				}
				if err := f.DestroySlice("s"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
