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
	return l.budget(l.A, l.B, l.CircA, l.CircB)
}

func (l *Link) budget(tx, rx *Transceiver, circTx, circRx *Circulator) (Budget, error) {
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
	b.MPIDB = l.mpi(rx, circRx, b.RxPowerDBm)
	b.DispersionPenaltyDB = l.dispersionPenalty(tx.Gen)
	b.MarginDB = b.RxPowerDBm - rx.Gen.SensitivityDBm - b.DispersionPenaltyDB
	return b, nil
}

// mpi aggregates the in-band interference at the receiver of a bidirectional
// link: the co-located transmitter's light leaking directly through the
// circulator (crosstalk) and its reflections off every interface in the
// path, which return through the circulator into the receiver (§4.1.2).
func (l *Link) mpi(rx *Transceiver, circRx *Circulator, rxSignalDBm float64) float64 {
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

// dispersionPenalty returns the unequalized chromatic dispersion penalty of
// the worst (band-edge) lane. The penalty grows with the square of the
// symbol rate and linearly with accumulated dispersion, matching the paper's
// observation that dispersion "is an issue for data rates above 100 Gb/s for
// the link lengths used" over the 80 nm CWDM spectral range (§3.3.1). The
// DSP's MLSE equalizer reduces it (see dsp.Equalizer).
func (l *Link) dispersionPenalty(gen Generation) float64 {
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
	// Calibration: 100G PAM4 (50 GBd) at the 1271 nm band edge over 2 km
	// (≈7.5 ps/nm) costs about 1 dB unequalized.
	penalty := 1.0 * (symbolRate / 50) * (symbolRate / 50) * worst / 7.5
	if penalty > 6 {
		penalty = 6 // beyond this the eye is closed; cap keeps sweeps sane
	}
	return penalty
}

// NewBidiLink assembles a single-strand bidirectional link through an OCS:
// transceiver A — circulator — connectors/fiber — OCS — fiber/connectors —
// circulator — transceiver B. ocsLossDB/ocsReturnDB come from the OCS model
// for the specific cross-connection in use.
func NewBidiLink(a, b *Transceiver, circ Circulator, ocsLossDB, ocsReturnDB, fiberKM float64) *Link {
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
