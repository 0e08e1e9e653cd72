package optics

import (
	"fmt"
	"math"
)

// Thin-film wavelength mux/demux model (§3.3.1: "low-loss optical
// components (thin-film-based wavelength mux/demux) ... were used to
// minimize optical path loss"). Narrower channel spacing (CWDM8's 10 nm vs
// CWDM4's 20 nm) needs sharper filters: more insertion loss, band-edge
// rolloff, and tighter adjacent-channel isolation requirements.

// Mux is a WDM multiplexer/demultiplexer for one grid.
type Mux struct {
	Grid Grid
	// CenterLossDB is the through loss at a channel center.
	CenterLossDB float64
	// EdgeRolloffDB is the extra loss of the outermost channels (filter
	// concatenation and passband edges).
	EdgeRolloffDB float64
	// AdjacentIsolationDB is the rejection of the neighboring channel
	// (positive dB).
	AdjacentIsolationDB float64
}

// NewMux returns the thin-film part for the grid: the tighter the channel
// spacing, the lossier and harder to isolate.
func NewMux(g Grid) Mux {
	if g.SpacingNM <= 10 {
		return Mux{Grid: g, CenterLossDB: 1.5, EdgeRolloffDB: 0.5, AdjacentIsolationDB: 25}
	}
	return Mux{Grid: g, CenterLossDB: 1.0, EdgeRolloffDB: 0.3, AdjacentIsolationDB: 30}
}

// ChannelLossDB returns the through loss of channel i: center loss plus a
// quadratic rolloff toward the band edges.
func (m Mux) ChannelLossDB(i int) (float64, error) {
	n := m.Grid.Lanes()
	if i < 0 || i >= n {
		return 0, fmt.Errorf("optics: channel %d outside grid %s", i, m.Grid.Name)
	}
	if n == 1 {
		return m.CenterLossDB, nil
	}
	// Normalized distance from band center in [-1, 1].
	x := 2*float64(i)/float64(n-1) - 1
	return m.CenterLossDB + m.EdgeRolloffDB*x*x, nil
}

// CrosstalkDB returns the leakage of channel `from` into channel `to`
// (negative dB; more negative is better), falling by 15 dB per additional
// channel of separation.
func (m Mux) CrosstalkDB(from, to int) (float64, error) {
	n := m.Grid.Lanes()
	if from < 0 || from >= n || to < 0 || to >= n {
		return 0, fmt.Errorf("optics: channels %d,%d outside grid %s", from, to, m.Grid.Name)
	}
	if from == to {
		return 0, nil
	}
	sep := from - to
	if sep < 0 {
		sep = -sep
	}
	return -(m.AdjacentIsolationDB + 15*float64(sep-1)), nil
}

// LaneBudget is the per-wavelength-lane budget of a WDM link.
type LaneBudget struct {
	Lane     int
	LambdaNM float64
	Budget
}

// WDMBudget computes per-lane budgets for one direction of the link,
// adding the mux+demux channel losses and replacing the worst-lane
// dispersion penalty with each lane's own (band-edge lanes suffer most).
func WDMBudget(l *Link, tx *Transceiver, m Mux) ([]LaneBudget, error) {
	base, err := l.BudgetTowardB()
	if err != nil {
		return nil, err
	}
	lanes := make([]LaneBudget, 0, m.Grid.Lanes())
	for i, lambda := range m.Grid.Channels {
		muxLoss, err := m.ChannelLossDB(i)
		if err != nil {
			return nil, err
		}
		lane := LaneBudget{Lane: i, LambdaNM: lambda, Budget: base}
		// Mux at the transmitter + demux at the receiver.
		lane.PathLossDB += 2 * muxLoss
		lane.RxPowerDBm -= 2 * muxLoss
		// Lane-specific effective MPI: link reflections plus demux
		// crosstalk from the other lanes.
		mpi, err := m.LaneMPIDB(i, base.MPIDB)
		if err != nil {
			return nil, err
		}
		lane.MPIDB = mpi
		// Lane-specific dispersion penalty.
		lane.DispersionPenaltyDB = lanePenaltyDB(tx.Gen, math.Abs(DispersionPsPerNMKM(lambda))*l.FiberKM)
		lane.MarginDB = lane.RxPowerDBm - tx.Gen.SensitivityDBm - lane.DispersionPenaltyDB
		lanes = append(lanes, lane)
	}
	return lanes, nil
}

// WorstLane returns the lane with the lowest margin.
func WorstLane(lanes []LaneBudget) (LaneBudget, error) {
	if len(lanes) == 0 {
		return LaneBudget{}, fmt.Errorf("optics: no lanes")
	}
	worst := lanes[0]
	for _, l := range lanes[1:] {
		if l.MarginDB < worst.MarginDB {
			worst = l
		}
	}
	return worst, nil
}

// LaneMPIDB returns the effective in-band interferer-to-signal ratio of
// lane i: the link's own MPI (reflections of the counter-propagating
// transmitter) plus the demux's leakage from every other lane. Crosstalk
// is "effectively equivalent to having a reflection in the link" (§3.3.1),
// so the powers add; middle lanes with two close neighbors fare slightly
// worse than band-edge lanes.
func (m Mux) LaneMPIDB(lane int, linkMPIDB float64) (float64, error) {
	n := m.Grid.Lanes()
	if lane < 0 || lane >= n {
		return 0, fmt.Errorf("optics: lane %d outside grid %s", lane, m.Grid.Name)
	}
	sum := 0.0
	if linkMPIDB > NoReflection {
		sum += math.Pow(10, linkMPIDB/10)
	}
	for other := 0; other < n; other++ {
		if other == lane {
			continue
		}
		xt, err := m.CrosstalkDB(other, lane)
		if err != nil {
			return 0, err
		}
		sum += math.Pow(10, xt/10)
	}
	if sum <= 0 {
		return NoReflection, nil
	}
	return 10 * math.Log10(sum), nil
}

// SharedChannels returns the channel indices (in the receiver's grid) whose
// center wavelengths a transmitter's grid also carries — the interop
// subset that lets a CWDM8 module talk to CWDM4 gear at reduced lane count
// (§3.3.1 backward compatibility via "careful design of the wavelength
// grid").
func SharedChannels(rx, tx Grid) []int {
	var out []int
	for i, a := range rx.Channels {
		for _, b := range tx.Channels {
			if a == b {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
