package optics

import (
	"errors"
	"fmt"
)

// Modulation is the per-lane line modulation format.
type Modulation int

// Supported modulation formats.
const (
	NRZ Modulation = iota
	PAM4
)

// String returns the conventional name.
func (m Modulation) String() string {
	switch m {
	case NRZ:
		return "NRZ"
	case PAM4:
		return "PAM4"
	default:
		return fmt.Sprintf("modulation(%d)", int(m))
	}
}

// BitsPerSymbol returns bits carried per symbol.
func (m Modulation) BitsPerSymbol() int {
	if m == PAM4 {
		return 2
	}
	return 1
}

// LaserType distinguishes directly and externally modulated lasers.
// Appendix C.1: EMLs were critical for mitigating MPI effects enhanced by
// bidirectional communication (lower chirp).
type LaserType int

// Laser types.
const (
	DML LaserType = iota // directly modulated laser
	EML                  // externally modulated laser
)

// String returns the conventional name.
func (l LaserType) String() string {
	if l == EML {
		return "EML"
	}
	return "DML"
}

// Generation describes one transceiver generation from the Fig 8 roadmap.
type Generation struct {
	Name         string
	FormFactor   string
	LaneRateGbps float64
	Modulation   Modulation
	Grid         Grid
	Laser        LaserType
	// Engines is the number of independent WDM transmitter/receiver pairs
	// in the module (the bidi OSFP of Fig 3 has two CWDM4 engines).
	Engines int
	// Bidi reports whether the module integrates circulators for
	// single-strand bidirectional operation.
	Bidi bool
	// FibersPerModule is the number of fiber strands the module drives:
	// one per engine for bidi modules, two per engine for duplex.
	FibersPerModule int
	// TxPowerDBm is the per-lane launch power.
	TxPowerDBm float64
	// SensitivityDBm is the per-lane receiver sensitivity at the KP4
	// threshold (2e-4) on a clean (MPI-free, back-to-back) channel.
	SensitivityDBm float64
	// PowerW is the module's electrical power draw.
	PowerW float64
	// RelativeCost is the module cost normalized to the 100G CWDM4 unit.
	RelativeCost float64
}

// Roadmap returns the WDM interconnect roadmap of Fig 8 plus the custom
// bidi modules of Fig 9, oldest first. Power/cost values are representative
// datacom figures normalized for the cost model; the paper reports only the
// 20× bandwidth growth and continuous efficiency improvement, which this
// table preserves.
func Roadmap() []Generation {
	return []Generation{
		{Name: "40G-QSFP+", FormFactor: "QSFP+", LaneRateGbps: 10, Modulation: NRZ,
			Grid: CWDM4(), Laser: DML, Engines: 1, FibersPerModule: 2, TxPowerDBm: 1.0, SensitivityDBm: -13,
			PowerW: 3.5, RelativeCost: 0.5},
		{Name: "100G-CWDM4", FormFactor: "QSFP28", LaneRateGbps: 25, Modulation: NRZ,
			Grid: CWDM4(), Laser: DML, Engines: 1, FibersPerModule: 2, TxPowerDBm: 1.5, SensitivityDBm: -12,
			PowerW: 4.0, RelativeCost: 1.0},
		{Name: "200G-CWDM4", FormFactor: "QSFP56", LaneRateGbps: 50, Modulation: PAM4,
			Grid: CWDM4(), Laser: EML, Engines: 1, FibersPerModule: 2, TxPowerDBm: 2.0, SensitivityDBm: -9,
			PowerW: 5.0, RelativeCost: 1.6},
		{Name: "2x200G-bidi-CWDM4", FormFactor: "OSFP", LaneRateGbps: 50, Modulation: PAM4,
			Grid: CWDM4(), Laser: EML, Engines: 2, Bidi: true, FibersPerModule: 2, TxPowerDBm: 2.5, SensitivityDBm: -9,
			PowerW: 9.0, RelativeCost: 3.0},
		{Name: "2x400G-bidi-CWDM4", FormFactor: "OSFP", LaneRateGbps: 100, Modulation: PAM4,
			Grid: CWDM4(), Laser: EML, Engines: 2, Bidi: true, FibersPerModule: 2, TxPowerDBm: 3.0, SensitivityDBm: -6,
			PowerW: 13.0, RelativeCost: 4.5},
		{Name: "800G-bidi-CWDM8", FormFactor: "OSFP", LaneRateGbps: 100, Modulation: PAM4,
			Grid: CWDM8(), Laser: EML, Engines: 1, Bidi: true, FibersPerModule: 1, TxPowerDBm: 3.0, SensitivityDBm: -6,
			PowerW: 11.0, RelativeCost: 6.0},
	}
}

// GenerationByName looks a generation up in the roadmap.
func GenerationByName(name string) (Generation, error) {
	for _, g := range Roadmap() {
		if g.Name == name {
			return g, nil
		}
	}
	return Generation{}, fmt.Errorf("optics: unknown generation %q", name)
}

// RateCapability is one (lane rate, modulation) operating mode.
type RateCapability struct {
	LaneRateGbps float64
	Modulation   Modulation
}

// Transceiver is one pluggable module: a generation plus its programmable
// operating modes (§3.3.1 backward compatibility: "the latest generation
// OSFP transceiver running at 100G PAM4 per lane must also support 50G PAM4
// and 25G NRZ operation").
type Transceiver struct {
	Gen   Generation
	Modes []RateCapability
}

// ErrIncompatible is returned when two transceivers share no operating mode.
var ErrIncompatible = errors.New("optics: transceivers share no operating mode")

// NewTransceiver builds a module of the given generation with its full
// backward-compatible mode set.
func NewTransceiver(gen Generation) *Transceiver {
	t := &Transceiver{Gen: gen}
	t.Modes = append(t.Modes, RateCapability{gen.LaneRateGbps, gen.Modulation})
	// Each generation also runs the prior generations' lane rates.
	switch gen.LaneRateGbps {
	case 100:
		t.Modes = append(t.Modes,
			RateCapability{50, PAM4},
			RateCapability{25, NRZ})
	case 50:
		t.Modes = append(t.Modes, RateCapability{25, NRZ})
	case 25:
		t.Modes = append(t.Modes, RateCapability{10, NRZ})
	}
	return t
}

// Negotiate returns the highest common operating mode of two modules, the
// software-programmable interop step that lets new ABs join an old fabric.
func (t *Transceiver) Negotiate(o *Transceiver) (RateCapability, error) {
	best := RateCapability{}
	found := false
	for _, a := range t.Modes {
		for _, b := range o.Modes {
			if a == b && (!found || a.LaneRateGbps > best.LaneRateGbps) {
				best = a
				found = true
			}
		}
	}
	if !found {
		return RateCapability{}, ErrIncompatible
	}
	return best, nil
}

// Circulator is the three-port non-reciprocal device of Appendix B that
// turns a duplex transceiver into a bidirectional one, "saving 50% of the
// OCS ports required for operation".
type Circulator struct {
	// InsertionLossDB is the port-1→2 and port-2→3 loss.
	InsertionLossDB float64
	// ReturnLossDB is the reflection back into an input port (negative).
	ReturnLossDB float64
	// CrosstalkDB is the direct port-1→3 leakage (negative); the paper
	// notes this "is effectively equivalent to having a reflection in the
	// link" and had to be re-engineered down.
	CrosstalkDB float64
}

// DefaultCirculator returns the re-engineered datacenter circulator of
// §3.3.1 / Appendix B.
func DefaultCirculator() Circulator {
	return Circulator{InsertionLossDB: 0.8, ReturnLossDB: -50, CrosstalkDB: -45}
}

// TelecomCirculator returns a legacy telecom-grade part, before the paper's
// re-engineering for wavelength range, return loss, and crosstalk — useful
// for ablation studies.
//
//lwlint:ignore deadexport its only caller is the root BenchmarkAblationCirculator, the telecom-circulator ablation DESIGN.md's extensions table cites
func TelecomCirculator() Circulator {
	return Circulator{InsertionLossDB: 1.0, ReturnLossDB: -42, CrosstalkDB: -35}
}
