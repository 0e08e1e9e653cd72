package optics

import (
	"math"
	"testing"
)

// The retired budget body and bidi link constructor, kept verbatim as the
// reference TestBudgetMatchesReference holds Link.BudgetTowardB and
// BidiPath.Budget to, bit for bit. The body summed the path loss, then
// walked the elements a second time for the MPI, and derived the
// dispersion penalty per call; every circuit built its own link.

func refNewBidiLink(a, b *Transceiver, circ Circulator, ocsLossDB, ocsReturnDB, fiberKM float64) *Link {
	ca, cb := circ, circ
	half := fiberKM / 2
	return &Link{
		A: a, B: b, CircA: &ca, CircB: &cb, FiberKM: fiberKM,
		Elements: []Element{
			Connector(),
			FiberSpan(half),
			OCSElement(ocsLossDB, ocsReturnDB),
			FiberSpan(half),
			Connector(),
		},
	}
}

func refBudget(l *Link, tx, rx *Transceiver, circTx, circRx *Circulator) (Budget, error) {
	if tx == nil || rx == nil {
		return Budget{}, ErrNoPath
	}
	var b Budget
	loss := 0.0
	if circTx != nil {
		loss += circTx.InsertionLossDB
	}
	for _, e := range l.Elements {
		loss += e.LossDB
	}
	if circRx != nil {
		loss += circRx.InsertionLossDB
	}
	b.PathLossDB = loss
	b.RxPowerDBm = tx.Gen.TxPowerDBm - loss
	b.MPIDB = refMPI(l, rx, circRx, b.RxPowerDBm)
	b.DispersionPenaltyDB = refDispersionPenalty(l, tx.Gen)
	b.MarginDB = b.RxPowerDBm - rx.Gen.SensitivityDBm - b.DispersionPenaltyDB
	return b, nil
}

func refMPI(l *Link, rx *Transceiver, circRx *Circulator, rxSignalDBm float64) float64 {
	if circRx == nil {
		return NoReflection // duplex link: no counter-propagating Tx on the strand
	}
	txDBm := rx.Gen.TxPowerDBm // the co-located transmitter
	sumLin := 0.0

	// Direct port-1→3 crosstalk.
	sumLin += math.Pow(10, (txDBm+circRx.CrosstalkDB)/10)

	// Reflections: walk the elements from the receiver's side outward.
	cum := 0.0 // loss accumulated from the local circulator to the interface
	for _, e := range l.Elements {
		if e.ReflectDB > NoReflection {
			// Tx→(port1→2 IL)→path to interface→reflection→path back→
			// (port2→3 IL)→Rx.
			p := txDBm - circRx.InsertionLossDB - cum + e.ReflectDB - cum - circRx.InsertionLossDB
			sumLin += math.Pow(10, p/10)
		}
		cum += e.LossDB
	}
	if sumLin <= 0 {
		return NoReflection
	}
	return 10*math.Log10(sumLin) - rxSignalDBm
}

func refDispersionPenalty(l *Link, gen Generation) float64 {
	if len(gen.Grid.Channels) == 0 || l.FiberKM <= 0 {
		return 0
	}
	worst := 0.0
	for _, lambda := range gen.Grid.Channels {
		d := math.Abs(DispersionPsPerNMKM(lambda)) * l.FiberKM // ps/nm accumulated
		if d > worst {
			worst = d
		}
	}
	symbolRate := gen.LaneRateGbps / float64(gen.Modulation.BitsPerSymbol()) // GBd
	penalty := 1.0 * (symbolRate / 50) * (symbolRate / 50) * worst / 7.5
	if penalty > 6 {
		penalty = 6
	}
	return penalty
}

func sameBudget(a, b Budget) bool {
	return math.Float64bits(a.PathLossDB) == math.Float64bits(b.PathLossDB) &&
		math.Float64bits(a.RxPowerDBm) == math.Float64bits(b.RxPowerDBm) &&
		math.Float64bits(a.MPIDB) == math.Float64bits(b.MPIDB) &&
		math.Float64bits(a.DispersionPenaltyDB) == math.Float64bits(b.DispersionPenaltyDB) &&
		math.Float64bits(a.MarginDB) == math.Float64bits(b.MarginDB)
}

// TestBudgetMatchesReference walks every roadmap generation, both
// circulators and a grid of fiber lengths, OCS losses and return losses
// (a reflection-free OCS included): a prepared BidiPath and NewBidiLink
// must price exactly as the retired body prices the retired constructor's
// link, and the reversed link and a duplex link over the same chain
// exactly as the retired body prices them.
func TestBudgetMatchesReference(t *testing.T) {
	n := 0
	for _, gen := range Roadmap() {
		a, b := NewTransceiver(gen), NewTransceiver(gen)
		for _, circ := range []Circulator{DefaultCirculator(), TelecomCirculator()} {
			for _, km := range []float64{0, 0.12, 1, 2.5, 26.5, 100} {
				p := NewBidiPath(a, b, circ, km)
				for loss := 0.55; loss < 6; loss += 0.37 {
					for _, rl := range []float64{NoReflection, -60, -46.3, -39.2, -30} {
						n++
						ref := refNewBidiLink(a, b, circ, loss, rl, km)
						want, err := refBudget(ref, ref.A, ref.B, ref.CircA, ref.CircB)
						if err != nil {
							t.Fatal(err)
						}
						l := NewBidiLink(a, b, circ, loss, rl, km)
						got, err := l.BudgetTowardB()
						if err != nil {
							t.Fatal(err)
						}
						if prepared := p.Budget(loss, rl); !sameBudget(prepared, want) || !sameBudget(got, want) {
							t.Fatalf("%s, %+v, %g km, OCS %g dB / %g dB: BidiPath %+v, Link %+v, reference %+v",
								gen.Name, circ, km, loss, rl, prepared, got, want)
						}
						back := &Link{A: l.B, B: l.A, CircA: l.CircB, CircB: l.CircA, FiberKM: km}
						dup := &Link{A: l.A, B: l.B, FiberKM: km}
						for i := range l.Elements {
							back.Elements = append(back.Elements, l.Elements[len(l.Elements)-1-i])
							dup.Elements = append(dup.Elements, l.Elements[i])
						}
						for _, o := range []*Link{back, dup} {
							got, _ := o.BudgetTowardB()
							want, _ := refBudget(o, o.A, o.B, o.CircA, o.CircB)
							if !sameBudget(got, want) {
								t.Fatalf("%s, %g km: %+v priced %+v, reference %+v", gen.Name, km, o, got, want)
							}
						}
					}
				}
			}
		}
	}
	if n < 5000 {
		t.Fatalf("grid visited only %d links", n)
	}
}

// TestBidiPathAllocatesNothing: pricing one OCS cross-connection on a
// prepared path is allocation-free.
func TestBidiPathAllocatesNothing(t *testing.T) {
	a, b := testModules(t)
	p := NewBidiPath(a, b, DefaultCirculator(), 0.12)
	var sink Budget
	if n := testing.AllocsPerRun(100, func() { sink = p.Budget(1.7, -46) }); n != 0 {
		t.Fatalf("BidiPath.Budget: %v allocs per call", n)
	}
	_ = sink
}
