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
					bud := exactBudget(t, f, r)
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
// legacy telecom circulator. The reflection-free column, the received
// power and margin a sure admission reads, must match the link too.
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
					got := exactBudget(t, f, r)
					m, _, err := f.move(r)
					if err != nil {
						t.Fatal(err)
					}
					gotRx, gotMargin := f.rx.path.Margin(ocsLossDB(m))
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
						{gotRx, want.RxPowerDBm},
						{gotMargin, want.MarginDB},
					} {
						if math.Float64bits(q[0]) != math.Float64bits(q[1]) {
							t.Fatalf("%.2f km, %+v, circuit %+v: admission priced %+v (BER %v; reflection-free rx %v, margin %v), a fresh link %+v (BER %v)",
								cfg.FiberKM, cfg.Circulator, r, got, gotBER, gotRx, gotMargin, want, wantBER)
						}
					}
				}
			}
		}
	}
}

// TestCircuitAdmissionAllocatesNothing: admitting one circuit allocates
// nothing, on the sure-admit path of the default plant and on the exact
// one, which prices a 25.5 km circuit's full budget and pre-FEC BER.
func TestCircuitAdmissionAllocatesNothing(t *testing.T) {
	long := DefaultConfig(4)
	long.FiberKM, long.SafetyMarginDB = 25.5, -50
	for _, tc := range []struct {
		name      string
		cfg       Config
		berCurves int
	}{
		{"sure", DefaultConfig(4), 0},
		{"exact", long, 1},
	} {
		f, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := topo.CircuitReq{OCS: 7, North: 1, South: 2}
		if tc.berCurves > 0 {
			r = belowBound(t, f)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := f.admit(r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: admitting one circuit: %v allocs", tc.name, allocs)
		}
		if f.berCurves != 101*tc.berCurves { // AllocsPerRun runs once more to warm up
			t.Errorf("%s: %d BER curves over 101 admissions, want %d each", tc.name, f.berCurves, tc.berCurves)
		}
	}
}

// belowBound returns a circuit of f's that is received below the
// sure-admit power and that the BER check admits.
func belowBound(t *testing.T, f *Fabric) topo.CircuitReq {
	t.Helper()
	for n := 0; n < 64; n++ {
		for s := 0; s < 64; s++ {
			r := topo.CircuitReq{OCS: 7, North: n, South: s}
			bud := exactBudget(t, f, r)
			if bud.RxPowerDBm < f.rx.sureRxDBm &&
				f.rx.receiver.BER(bud.RxPowerDBm, dsp.MPICondition{MPIDB: bud.MPIDB, OIM: true}) <= f.rx.maxBER {
				return r
			}
		}
	}
	t.Fatal("no circuit of OCS 7 is admitted below the sure-admit power")
	return topo.CircuitReq{}
}

// exactBudget is circuit r's full optical budget, reflections included:
// what admission prices a circuit received below the sure-admit power by.
func exactBudget(t testing.TB, f *Fabric, r topo.CircuitReq) optics.Budget {
	t.Helper()
	m, rl, err := f.move(r)
	if err != nil {
		t.Fatal(err)
	}
	return f.rx.path.Budget(ocsLossDB(m), rl)
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
	bud := exactBudget(t, f, reqs[0])
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
	first, err := f.circuitMargin(ok.Circuits[0])
	if err != nil {
		t.Fatal(err)
	}
	if first < cfg.SafetyMarginDB {
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

// BenchmarkValidateBudgets prices admission alone, nothing programmed,
// over the 384 circuits of an 8-cube slice, reported per circuit. On the
// default plant every circuit is sure-admitted from its margin.
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

// TestNewRefusesUnpricedConfig: a cube count out of range, or a fiber
// length or safety margin admission cannot price, is refused with
// ErrConfig, and no fabric is built. Zero fiber and a negative safety
// margin stay legal.
func TestNewRefusesUnpricedConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"no cubes", func(c *Config) { c.Cubes = 0 }},
		{"65 cubes", func(c *Config) { c.Cubes = 65 }},
		{"fiber NaN", func(c *Config) { c.FiberKM = math.NaN() }},
		{"fiber +Inf", func(c *Config) { c.FiberKM = math.Inf(1) }},
		{"fiber -Inf", func(c *Config) { c.FiberKM = math.Inf(-1) }},
		{"fiber negative", func(c *Config) { c.FiberKM = -5 }},
		{"margin NaN", func(c *Config) { c.SafetyMarginDB = math.NaN() }},
		{"margin +Inf", func(c *Config) { c.SafetyMarginDB = math.Inf(1) }},
		{"margin -Inf", func(c *Config) { c.SafetyMarginDB = math.Inf(-1) }},
	} {
		cfg := DefaultConfig(4)
		tc.set(&cfg)
		if f, err := New(cfg); !errors.Is(err, ErrConfig) || f != nil {
			t.Errorf("%s: New = %v, %v; want nil, ErrConfig", tc.name, f, err)
		}
	}
	cfg := DefaultConfig(4)
	cfg.FiberKM, cfg.SafetyMarginDB = 0, -50
	if _, err := New(cfg); err != nil {
		t.Errorf("zero fiber, −50 dB safety margin: %v", err)
	}
}

// TestSureAdmissionIsExact makes the sure-admit bound's soundness a gate.
// On plants astride the FEC edge, with the margin check out of the way,
// every identity-wired port pair of every OCS gets the same verdict from
// validateBudgets as from the exact form: the pre-FEC BER of its full
// budget against maxBER. Every plant sends circuits down the exact path,
// and every plant but the telecom-circulator one at 26.5 km, where no
// circuit is received as high as the bound, down the sure one.
func TestSureAdmissionIsExact(t *testing.T) {
	for _, km := range []float64{24, 25.5, 26.5} {
		for _, circ := range []optics.Circulator{optics.DefaultCirculator(), optics.TelecomCirculator()} {
			cfg := DefaultConfig(64)
			cfg.FiberKM, cfg.Circulator, cfg.SafetyMarginDB = km, circ, -50
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var req [1]topo.CircuitReq
			exact, wrong := 0, 0
			for o := 0; o < topo.NumOCS; o++ {
				for n := 0; n < 64; n++ {
					for s := 0; s < 64; s++ {
						req[0] = topo.CircuitReq{OCS: topo.OCSID(o), North: n, South: s}
						before := f.berCurves
						_, err := f.validateBudgets(req[:])
						if err != nil && !errors.Is(err, ErrLinkBudget) {
							t.Fatal(err)
						}
						bud := exactBudget(t, f, req[0])
						admit := f.rx.receiver.BER(bud.RxPowerDBm, dsp.MPICondition{MPIDB: bud.MPIDB, OIM: true}) <= f.rx.maxBER
						if (err == nil) != admit {
							if wrong++; wrong <= 3 {
								t.Errorf("%v km, %+v, circuit %+v: validateBudgets err = %v, exact form admits = %v",
									km, circ, req[0], err, admit)
							}
						}
						exact += f.berCurves - before
					}
				}
			}
			sure := topo.NumOCS*64*64 - exact
			t.Logf("%v km, %+v: %d sure, %d exact, %d verdicts differ", km, circ, sure, exact, wrong)
			if wrong > 0 {
				t.Errorf("%v km, %+v: %d verdicts differ from the exact form", km, circ, wrong)
			}
			noSure := km == 26.5 && circ == optics.TelecomCirculator()
			if exact == 0 || (sure == 0) != noSure {
				t.Errorf("%v km, %+v: %d circuits sure-admitted, %d priced in full; want both paths taken", km, circ, sure, exact)
			}
		}
	}
}

// TestAdmissionWorkCounts pins the BER curves admission evaluates: none to
// compose every cube of a default pod, whose every circuit is received
// above the sure-admit power, and a fixed count for the same pod's
// circuits on the 25.5 km plant astride the FEC edge.
func TestAdmissionWorkCounts(t *testing.T) {
	shape := topo.Shape{X: 16, Y: 16, Z: 16}
	f := newFabric(t, 64)
	s, err := f.ComposeSlice("pod", shape, seq(64))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Circuits) != 64*topo.NumOCS || f.berCurves != 0 {
		t.Errorf("default pod: %d BER curves over %d circuits, want 0 over %d", f.berCurves, len(s.Circuits), 64*topo.NumOCS)
	}

	cfg := DefaultConfig(64)
	cfg.FiberKM, cfg.SafetyMarginDB = 25.5, -50
	if f, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for _, r := range s.Circuits {
		if _, err := f.admit(r); err == nil {
			admitted++
		} else if !errors.Is(err, ErrLinkBudget) {
			t.Fatal(err)
		}
	}
	if f.berCurves != 251 || admitted != 3048 { // every one of the 3072 priced in full before the bound
		t.Errorf("25.5 km pod: %d BER curves, %d of %d circuits admitted; want 251, 3048",
			f.berCurves, admitted, len(s.Circuits))
	}
}

// FuzzSureAdmission holds the sure-admit bound to the exact form beyond
// the plants a fabric builds: any fiber length up to 40 km, either
// circulator, an OCS loss floor up to 10 dB and a port return loss up to
// ocs.ReturnLossCeilingDB. A circuit received at or above the bound must
// have a pre-FEC BER within maxBER, and the reflection-free received power
// and margin must equal the full budget's bit for bit.
//
// The seeds in testdata/fuzz/FuzzSureAdmission put circuits at the bound
// (edge-*) and just past the FEC edge at the ceiling return loss, with a
// pre-FEC BER 5 % over maxBER (over-edge-*), where a bound bisected at
// 2·maxBER or without the echo would sure-admit them.
func FuzzSureAdmission(f *testing.F) {
	f.Fuzz(func(t *testing.T, km float64, telecom bool, floorDB, belowCeilingDB float64) {
		fold := func(x, span float64) float64 { // any float onto [0, span)
			if x = math.Mod(math.Abs(x), span); math.IsNaN(x) {
				return 0
			}
			return x
		}
		cfg := DefaultConfig(1)
		cfg.FiberKM = fold(km, 40)
		if telecom {
			cfg.Circulator = optics.TelecomCirculator()
		}
		a := newAdmission(cfg)
		loss, rl := fold(floorDB, 10)+0.1, ocs.ReturnLossCeilingDB-fold(belowCeilingDB, 40)
		bud := a.path.Budget(loss, rl)
		rx, margin := a.path.Margin(loss)
		if math.Float64bits(rx) != math.Float64bits(bud.RxPowerDBm) || math.Float64bits(margin) != math.Float64bits(bud.MarginDB) {
			t.Fatalf("%v km, OCS loss %v dB: reflection-free rx %v, margin %v; budget %+v", cfg.FiberKM, loss, rx, margin, bud)
		}
		if ber := a.receiver.BER(bud.RxPowerDBm, dsp.MPICondition{MPIDB: bud.MPIDB, OIM: true}); rx >= a.sureRxDBm && ber > a.maxBER {
			t.Fatalf("%v km, OCS loss %v dB, return loss %v dB: rx %v dBm ≥ sure-admit %v dBm, but BER %v > %v",
				cfg.FiberKM, loss, rl, rx, a.sureRxDBm, ber, a.maxBER)
		}
	})
}
