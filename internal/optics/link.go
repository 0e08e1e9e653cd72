package optics

import (
	"errors"
	"math"
)

// Element is one passive component on the optical path between two
// transceivers: its through loss and the reflection at its input interface.
// ReflectDB is a (negative) return loss; NoReflection marks interfaces with
// negligible reflection.
type Element struct {
	Name      string
	LossDB    float64
	ReflectDB float64
}

// NoReflection is the ReflectDB value for interfaces with negligible
// reflection (e.g. a fusion splice or the fiber itself).
const NoReflection = -200.0

// Connector returns a typical physical-contact connector: 0.3 dB loss,
// −45 dB return loss.
func Connector() Element {
	return Element{Name: "connector", LossDB: 0.3, ReflectDB: -45}
}

// FiberSpan returns a single-mode fiber span of the given length with
// 0.35 dB/km O-band attenuation and negligible reflection.
func FiberSpan(km float64) Element {
	return Element{Name: "fiber", LossDB: 0.35 * km, ReflectDB: NoReflection}
}

// OCSElement returns the OCS as a path element: its measured insertion loss
// for this cross-connection and the port return loss (Fig 10).
func OCSElement(insertionLossDB, returnLossDB float64) Element {
	return Element{Name: "ocs", LossDB: insertionLossDB, ReflectDB: returnLossDB}
}

// Link is one optical path between transceivers A and B. For bidi links
// both directions share the element chain and each end has a circulator;
// duplex links (CircA/CircB nil) use separate strands per direction and see
// far less MPI.
type Link struct {
	A, B         *Transceiver
	CircA, CircB *Circulator
	// Elements are ordered from A to B, excluding the circulators.
	Elements []Element
	// FiberKM is the total fiber length, used for the dispersion penalty.
	FiberKM float64
}

// ErrNoPath is returned for a link with no usable signal path.
var ErrNoPath = errors.New("optics: link has no path")

// Budget is the computed optical budget for one direction of a link.
type Budget struct {
	// RxPowerDBm is the signal power at the receiver.
	RxPowerDBm float64
	// PathLossDB is the end-to-end loss including circulators.
	PathLossDB float64
	// MPIDB is the aggregate interferer-to-signal ratio at the receiver
	// (negative; closer to zero is worse). For duplex links it reflects
	// only double-Rayleigh-order terms and is effectively negligible.
	MPIDB float64
	// DispersionPenaltyDB is the unequalized chromatic dispersion penalty
	// of the worst wavelength lane.
	DispersionPenaltyDB float64
	// MarginDB is RxPower − (sensitivity + dispersion penalty). MPI is
	// accounted separately by the DSP model, which can mitigate it.
	MarginDB float64
}

// BudgetTowardB computes the budget for the A→B direction (receiver at B).
func (l *Link) BudgetTowardB() (Budget, error) {
	if l.A == nil || l.B == nil {
		return Budget{}, ErrNoPath
	}
	w := startWalk(l.B, l.CircA, l.CircB)
	for _, e := range l.Elements {
		w.step(e)
	}
	return w.finish(l.A, l.B, dispersionPenaltyDB(l.A.Gen, l.FiberKM)), nil
}

// walk is the one budget body: A to B, element by element. A bidi receiver
// hears its co-located transmitter (echoDBm) through its circulator (circIL
// each way, §4.1.2); a duplex one hears none (echoDBm −∞, circIL 0).
type walk struct {
	loss    float64 // path loss so far, the transmitter's circulator included
	echoDBm float64
	circIL  float64
	cum     float64 // loss from the receiver's circulator to the next interface
	echoLin float64 // interferer power so far, linear
}

func startWalk(rx *Transceiver, circTx, circRx *Circulator) walk {
	w := walk{echoDBm: math.Inf(-1)}
	if circTx != nil {
		w.loss += circTx.InsertionLossDB
	}
	if circRx != nil {
		w.echoDBm, w.circIL = rx.Gen.TxPowerDBm, circRx.InsertionLossDB
		// Direct port-1→3 crosstalk.
		w.echoLin += math.Pow(10, (w.echoDBm+circRx.CrosstalkDB)/10)
	}
	return w
}

// step adds the next element toward B.
//
//lwlint:hotpath
func (w *walk) step(e Element) {
	w.loss += e.LossDB
	if e.ReflectDB > NoReflection {
		// Tx→(port1→2 IL)→path to interface→reflection→path back→
		// (port2→3 IL)→Rx.
		p := w.echoDBm - w.circIL - w.cum + e.ReflectDB - w.cum - w.circIL
		w.echoLin += math.Pow(10, p/10)
	}
	w.cum += e.LossDB
}

// finish closes the walk at the receiver.
//
//lwlint:hotpath
func (w *walk) finish(tx, rx *Transceiver, dispersionDB float64) Budget {
	b := Budget{PathLossDB: w.loss + w.circIL, DispersionPenaltyDB: dispersionDB}
	b.RxPowerDBm = tx.Gen.TxPowerDBm - b.PathLossDB
	b.MPIDB = 10*math.Log10(w.echoLin) - b.RxPowerDBm
	if w.echoLin <= 0 {
		b.MPIDB = NoReflection // nothing echoes back: a duplex receiver
	}
	b.MarginDB = b.RxPowerDBm - rx.Gen.SensitivityDBm - b.DispersionPenaltyDB
	return b
}

// dispersionPenaltyDB returns the unequalized chromatic dispersion penalty
// of the worst (band-edge) lane of gen over fiberKM. The penalty grows
// with the square of the symbol rate and linearly with accumulated
// dispersion, matching the paper's observation that dispersion "is an
// issue for data rates above 100 Gb/s for the link lengths used" over the
// 80 nm CWDM spectral range (§3.3.1). The DSP's MLSE equalizer reduces it
// (see dsp.Equalizer).
func dispersionPenaltyDB(gen Generation, fiberKM float64) float64 {
	if len(gen.Grid.Channels) == 0 || fiberKM <= 0 {
		return 0
	}
	worst := 0.0
	for _, lambda := range gen.Grid.Channels {
		d := math.Abs(DispersionPsPerNMKM(lambda)) * fiberKM // ps/nm accumulated
		if d > worst {
			worst = d
		}
	}
	return lanePenaltyDB(gen, worst)
}

// lanePenaltyDB is the unequalized penalty of one lane that accumulated
// psPerNM of dispersion.
func lanePenaltyDB(gen Generation, psPerNM float64) float64 {
	symbolRate := gen.LaneRateGbps / float64(gen.Modulation.BitsPerSymbol()) // GBd
	// Calibration: 100G PAM4 (50 GBd) at the 1271 nm band edge over 2 km
	// (≈7.5 ps/nm) costs about 1 dB unequalized.
	penalty := 1.0 * (symbolRate / 50) * (symbolRate / 50) * psPerNM / 7.5
	if penalty > 6 {
		penalty = 6 // beyond this the eye is closed; cap keeps sweeps sane
	}
	return penalty
}

// bidiChain is the element chain of a bidi link through an OCS, A to B,
// circulators excluded; the OCS element sits at index bidiOCS.
func bidiChain(ocsLossDB, ocsReturnDB, fiberKM float64) [5]Element {
	half := fiberKM / 2
	return [5]Element{Connector(), FiberSpan(half), OCSElement(ocsLossDB, ocsReturnDB), FiberSpan(half), Connector()}
}

const bidiOCS = 2

// BidiPath is a bidi link through an OCS with all but the OCS element
// fixed: it holds the walk up to the OCS (path-loss prefix, circulator
// crosstalk, near-connector reflection) and the dispersion penalty, so
// pricing an OCS element walks only it and what lies beyond, allocating
// and remembering nothing.
type BidiPath struct {
	a, b         *Transceiver
	fiberKM      float64
	prefix       walk
	dispersionDB float64
}

// NewBidiPath prepares the bidi link between a and b over fiberKM of fiber.
func NewBidiPath(a, b *Transceiver, circ Circulator, fiberKM float64) BidiPath {
	p := BidiPath{a: a, b: b, fiberKM: fiberKM, prefix: startWalk(b, &circ, &circ), dispersionDB: dispersionPenaltyDB(a.Gen, fiberKM)}
	chain := bidiChain(0, NoReflection, fiberKM)
	for _, e := range chain[:bidiOCS] {
		p.prefix.step(e)
	}
	return p
}

// Budget is the A→B budget with an OCS element of ocsLossDB insertion loss
// and ocsReturnDB return loss in place: NewBidiLink's budget, bit for bit.
//
//lwlint:hotpath
func (p *BidiPath) Budget(ocsLossDB, ocsReturnDB float64) Budget {
	w := p.prefix
	chain := bidiChain(ocsLossDB, ocsReturnDB, p.fiberKM)
	for _, e := range chain[bidiOCS:] {
		w.step(e)
	}
	return w.finish(p.a, p.b, p.dispersionDB)
}

// Margin is Budget's RxPowerDBm and MarginDB, bit for bit, without the
// reflection walk: the same losses added in the same order, and no echo.
//
//lwlint:hotpath
func (p *BidiPath) Margin(ocsLossDB float64) (rxPowerDBm, marginDB float64) {
	loss := p.prefix.loss
	chain := bidiChain(ocsLossDB, NoReflection, p.fiberKM)
	for _, e := range chain[bidiOCS:] {
		loss += e.LossDB
	}
	rxPowerDBm = p.a.Gen.TxPowerDBm - (loss + p.prefix.circIL)
	return rxPowerDBm, rxPowerDBm - p.b.Gen.SensitivityDBm - p.dispersionDB
}

// NewBidiLink assembles a single-strand bidirectional link through an OCS,
// circulator to circulator; ocsLossDB/ocsReturnDB come from the OCS model
// for the specific cross-connection in use.
func NewBidiLink(a, b *Transceiver, circ Circulator, ocsLossDB, ocsReturnDB, fiberKM float64) *Link {
	ca, cb := circ, circ
	chain := bidiChain(ocsLossDB, ocsReturnDB, fiberKM)
	return &Link{A: a, B: b, CircA: &ca, CircB: &cb, FiberKM: fiberKM, Elements: chain[:]}
}
