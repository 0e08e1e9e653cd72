package optics

import (
	"errors"
	"math"
	"testing"
)

func testModules(t *testing.T) (*Transceiver, *Transceiver) {
	t.Helper()
	g, err := GenerationByName("2x200G-bidi-CWDM4")
	if err != nil {
		t.Fatal(err)
	}
	return NewTransceiver(g), NewTransceiver(g)
}

func TestBidiLinkBudgetPositiveMargin(t *testing.T) {
	a, b := testModules(t)
	l := NewBidiLink(a, b, DefaultCirculator(), 1.8, -46, 1.0)
	bud, err := l.BudgetTowardB()
	if err != nil {
		t.Fatal(err)
	}
	if bud.MarginDB <= 0 {
		t.Fatalf("production-style link has negative margin: %+v", bud)
	}
	if bud.PathLossDB <= 0 {
		t.Fatal("path loss not positive")
	}
	// Loss components: 2×circulator (1.6) + 2×connector (0.6) + OCS (1.8)
	// + 1 km fiber (0.35) ≈ 4.35 dB.
	if math.Abs(bud.PathLossDB-4.35) > 0.01 {
		t.Errorf("path loss = %v dB, want ≈4.35", bud.PathLossDB)
	}
}

func TestBidiBudgetSymmetric(t *testing.T) {
	a, b := testModules(t)
	l := NewBidiLink(a, b, DefaultCirculator(), 1.8, -46, 1.0)
	f, _ := l.BudgetTowardB()
	// The B→A direction is the A→B budget of the mirrored link.
	back := &Link{A: l.B, B: l.A, CircA: l.CircB, CircB: l.CircA, FiberKM: l.FiberKM}
	for i := len(l.Elements) - 1; i >= 0; i-- {
		back.Elements = append(back.Elements, l.Elements[i])
	}
	r, _ := back.BudgetTowardB()
	if math.Abs(f.PathLossDB-r.PathLossDB) > 1e-9 {
		t.Fatalf("asymmetric loss: %v vs %v", f.PathLossDB, r.PathLossDB)
	}
	if math.Abs(f.MPIDB-r.MPIDB) > 1e-9 {
		t.Fatalf("asymmetric MPI on a symmetric link: %v vs %v", f.MPIDB, r.MPIDB)
	}
}

func TestBidiMPIInPlausibleRange(t *testing.T) {
	// Fig 11 sweeps MPI from −35 to −29 dB; a production link with the
	// re-engineered circulator should land in or below that band.
	a, b := testModules(t)
	l := NewBidiLink(a, b, DefaultCirculator(), 1.8, -46, 1.0)
	bud, _ := l.BudgetTowardB()
	if bud.MPIDB > -25 || bud.MPIDB < -55 {
		t.Fatalf("MPI = %.1f dB, outside plausible bidi range", bud.MPIDB)
	}
}

func TestDuplexLinkHasNegligibleMPI(t *testing.T) {
	a, b := testModules(t)
	l := NewDuplexLink(a, b, 1.8, -46, 1.0)
	bud, err := l.BudgetTowardB()
	if err != nil {
		t.Fatal(err)
	}
	if bud.MPIDB > -100 {
		t.Fatalf("duplex link MPI = %v dB, want negligible", bud.MPIDB)
	}
}

func TestBidiMPIWorseThanDuplex(t *testing.T) {
	a, b := testModules(t)
	bidi := NewBidiLink(a, b, DefaultCirculator(), 1.8, -46, 1.0)
	dup := NewDuplexLink(a, b, 1.8, -46, 1.0)
	bb, _ := bidi.BudgetTowardB()
	db, _ := dup.BudgetTowardB()
	if bb.MPIDB <= db.MPIDB {
		t.Fatal("bidi link should have more MPI than duplex")
	}
}

func TestWorseOCSReturnLossWorsensMPI(t *testing.T) {
	// §4.1.1: "This stringent return loss requirement stems from the use of
	// bidirectional links" — degrade the OCS return loss and MPI must rise.
	a, b := testModules(t)
	good := NewBidiLink(a, b, DefaultCirculator(), 1.8, -46, 1.0)
	bad := NewBidiLink(a, b, DefaultCirculator(), 1.8, -30, 1.0)
	gb, _ := good.BudgetTowardB()
	bb, _ := bad.BudgetTowardB()
	if bb.MPIDB <= gb.MPIDB {
		t.Fatalf("MPI with −30 dB RL (%v) not worse than with −46 dB (%v)", bb.MPIDB, gb.MPIDB)
	}
}

func TestTelecomCirculatorWorsensMPI(t *testing.T) {
	a, b := testModules(t)
	good := NewBidiLink(a, b, DefaultCirculator(), 1.8, -46, 1.0)
	bad := NewBidiLink(a, b, TelecomCirculator(), 1.8, -46, 1.0)
	gb, _ := good.BudgetTowardB()
	bb, _ := bad.BudgetTowardB()
	if bb.MPIDB <= gb.MPIDB {
		t.Fatal("legacy telecom circulator should worsen MPI")
	}
}

func TestHigherOCSLossReducesMargin(t *testing.T) {
	a, b := testModules(t)
	l1 := NewBidiLink(a, b, DefaultCirculator(), 1.0, -46, 1.0)
	l2 := NewBidiLink(a, b, DefaultCirculator(), 3.0, -46, 1.0)
	b1, _ := l1.BudgetTowardB()
	b2, _ := l2.BudgetTowardB()
	if math.Abs((b1.MarginDB-b2.MarginDB)-2.0) > 1e-9 {
		t.Fatalf("margin delta = %v, want 2 dB", b1.MarginDB-b2.MarginDB)
	}
}

func TestDispersionPenaltyScalesWithRate(t *testing.T) {
	gOld, _ := GenerationByName("100G-CWDM4")        // 25G NRZ lanes
	gNew, _ := GenerationByName("2x400G-bidi-CWDM4") // 100G PAM4 lanes
	a25, b25 := NewTransceiver(gOld), NewTransceiver(gOld)
	a100, b100 := NewTransceiver(gNew), NewTransceiver(gNew)
	l25 := NewBidiLink(a25, b25, DefaultCirculator(), 1.8, -46, 2.0)
	l100 := NewBidiLink(a100, b100, DefaultCirculator(), 1.8, -46, 2.0)
	p25, _ := l25.BudgetTowardB()
	p100, _ := l100.BudgetTowardB()
	if p100.DispersionPenaltyDB <= p25.DispersionPenaltyDB {
		t.Fatal("dispersion penalty should grow with lane rate")
	}
	// Calibration: ≈1 dB for 100G PAM4 at 2 km, negligible for 25G NRZ.
	if p100.DispersionPenaltyDB < 0.5 || p100.DispersionPenaltyDB > 2 {
		t.Errorf("100G penalty = %v dB", p100.DispersionPenaltyDB)
	}
	if p25.DispersionPenaltyDB > 0.3 {
		t.Errorf("25G penalty = %v dB", p25.DispersionPenaltyDB)
	}
}

func TestDispersionPenaltyCapped(t *testing.T) {
	g, _ := GenerationByName("800G-bidi-CWDM8")
	a, b := NewTransceiver(g), NewTransceiver(g)
	l := NewBidiLink(a, b, DefaultCirculator(), 1.8, -46, 100) // absurd reach
	bud, _ := l.BudgetTowardB()
	if bud.DispersionPenaltyDB > 6 {
		t.Fatalf("penalty %v dB not capped", bud.DispersionPenaltyDB)
	}
}

func TestZeroFiberNoDispersionPenalty(t *testing.T) {
	a, b := testModules(t)
	l := NewBidiLink(a, b, DefaultCirculator(), 1.8, -46, 0)
	bud, _ := l.BudgetTowardB()
	if bud.DispersionPenaltyDB != 0 {
		t.Fatalf("penalty = %v with zero fiber", bud.DispersionPenaltyDB)
	}
}

func TestBudgetNilEndpoint(t *testing.T) {
	l := &Link{}
	if _, err := l.BudgetTowardB(); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestElementConstructors(t *testing.T) {
	if c := Connector(); c.LossDB != 0.3 || c.ReflectDB != -45 {
		t.Errorf("Connector = %+v", c)
	}
	if f := FiberSpan(2); math.Abs(f.LossDB-0.7) > 1e-12 || f.ReflectDB != NoReflection {
		t.Errorf("FiberSpan(2) = %+v", f)
	}
	if o := OCSElement(1.8, -46); o.LossDB != 1.8 || o.ReflectDB != -46 {
		t.Errorf("OCSElement = %+v", o)
	}
}

// NewDuplexLink assembles a classic two-strand duplex link through an OCS
// (one strand per direction, no circulators).
func NewDuplexLink(a, b *Transceiver, ocsLossDB, ocsReturnDB, fiberKM float64) *Link {
	half := fiberKM / 2
	return &Link{
		A: a, B: b, FiberKM: fiberKM,
		Elements: []Element{
			Connector(),
			FiberSpan(half),
			OCSElement(ocsLossDB, ocsReturnDB),
			FiberSpan(half),
			Connector(),
		},
	}
}
