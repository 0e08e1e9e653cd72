// Package ocs models the Palomar optical circuit switch described in §3.2 of
// the paper: a non-blocking 136×136 MEMS switch with bijective any-to-any
// North-to-South port connectivity, camera-based closed-loop mirror
// alignment, millisecond-class switching, sub-2 dB insertion loss, −46 dB
// typical return loss, and a field-replaceable-unit design whose high-voltage
// mirror driver boards were "one of the largest reliability challenges for
// the switch".
//
// The switch is a simulation substrate: it reproduces everything the control
// plane and the paper's evaluation observe about a real Palomar OCS — the
// port map, reconfiguration semantics (circuits not being changed stay up),
// switching time, per-connection optical loss, and failure/repair behaviour —
// without any optical hardware.
package ocs

import (
	"errors"
	"fmt"

	"lightwave/internal/sim"
	"lightwave/internal/telemetry"
)

// PortID identifies a duplex port (a North/South collimator pair) on one
// switch, in [0, Radix).
type PortID int

// Errors returned by switch operations.
var (
	ErrPortRange    = errors.New("ocs: port out of range")
	ErrPortBusy     = errors.New("ocs: port already connected")
	ErrPortFailed   = errors.New("ocs: port failed")
	ErrNotConnected = errors.New("ocs: port not connected")
	ErrSwitchDown   = errors.New("ocs: switch unavailable")
	ErrNoSpare      = errors.New("ocs: no spare resource available")
	ErrNotBijective = errors.New("ocs: permutation is not bijective")
	ErrDriverBoard  = errors.New("ocs: driver board out of range")
	ErrBoardHealthy = errors.New("ocs: driver board is healthy")
	ErrMirrorRange  = errors.New("ocs: mirror out of range")
)

// Config parameterizes a Palomar-class switch. The zero value is not
// usable; call DefaultConfig and adjust.
type Config struct {
	// Radix is the number of duplex ports (paper: 136, of which 8 are
	// spares kept for link testing and repairs).
	Radix int
	// SparePorts of the radix are reserved; usable production ports are
	// Radix-SparePorts.
	SparePorts int
	// MirrorsPerDie is the number of micro-mirrors fabricated on each of
	// the two MEMS dies (paper: 176, best 136 selected at manufacture).
	MirrorsPerDie int
	// DriverBoards is the number of high-voltage driver boards; each board
	// actuates an equal contiguous share of each die's mirrors.
	DriverBoards int
	// Seed fixes the manufacturing variation of this physical unit.
	Seed uint64
	// Metrics receives telemetry; nil disables metric export.
	Metrics *telemetry.Registry
}

// DefaultConfig returns the production Palomar configuration from the paper.
func DefaultConfig() Config {
	return Config{
		Radix:         136,
		SparePorts:    8,
		MirrorsPerDie: 176,
		DriverBoards:  8,
		Seed:          1,
	}
}

// Palomar's connection timing: one mirror move settles in mirrorSettle
// seconds (milliseconds class for MEMS, Table C.1), then alignIterations
// camera-feedback rounds of alignRound seconds each close the loop
// (§3.2.2: image-based closed-loop alignment).
const (
	mirrorSettle    = 2e-3
	alignIterations = 6
	alignRound      = 0.5e-3
	setupTime       = mirrorSettle + alignIterations*alignRound
)

// ReturnLossCeilingDB is the worst return loss any port has: New clamps
// every port at or below it (the spec is < −38 dB) and nothing else
// writes a port's return loss, so an echo priced at it bounds every
// port's.
const ReturnLossCeilingDB = -39.0

// Circuit is an established North→South cross-connection.
type Circuit struct {
	North, South PortID
	// InsertionLossDB is the optical loss of this path after closed-loop
	// alignment, in dB.
	InsertionLossDB float64
	// SetupTime is the simulated wall time the connection took to
	// establish, in seconds.
	SetupTime float64
}

// Switch is one Palomar OCS. Methods are not safe for concurrent use; the
// fabric control plane serializes access per switch (matching the real
// system, where the chassis CPU applies one command stream).
type Switch struct {
	cfg Config

	// conn[n] = south port connected to north port n, or -1.
	conn []int
	// rconn[s] = north port connected to south port s, or -1.
	rconn []int
	// loss[n] = settled insertion loss of north port n's circuit, dB.
	loss     []float64
	circuits int // connected north ports

	// southSeen[s] == stamp marks south port s as targeted by the
	// permutation being checked; each check takes a new stamp.
	southSeen []uint32
	stamp     uint32

	dies       [2]die
	portMirror [2][]int // portMirror[d][p] = mirror index on die d serving port p
	boards     []bool   // boards[b] = healthy

	portFailed []bool
	portRL     []float64    // per-port return loss, dB (negative)
	spareUsed  map[int]bool // spare ports already allocated to repairs

	psu  [2]bool
	fans []bool

	up           bool
	metricLoss   *telemetry.Distribution
	metricReconf *telemetry.Counter
	metricDrops  *telemetry.Counter

	mfg *sim.Rand // manufacturing/alignment variation stream
}

type die struct {
	quality []float64 // per-mirror loss contribution, dB
	ok      []bool    // per-mirror health
}

// New builds a switch with manufacturing variation drawn from cfg.Seed.
// Mirror selection follows the paper: MirrorsPerDie mirrors are fabricated
// and the best Radix of them (lowest loss) are bonded to ports; the rest are
// qualified spares.
func New(cfg Config) (*Switch, error) {
	if cfg.Radix <= 0 || cfg.MirrorsPerDie < cfg.Radix {
		return nil, fmt.Errorf("ocs: invalid config: radix %d, mirrors/die %d", cfg.Radix, cfg.MirrorsPerDie)
	}
	if cfg.SparePorts < 0 || cfg.SparePorts >= cfg.Radix {
		return nil, fmt.Errorf("ocs: invalid spare ports %d", cfg.SparePorts)
	}
	if cfg.DriverBoards <= 0 || cfg.MirrorsPerDie%cfg.DriverBoards != 0 {
		return nil, fmt.Errorf("ocs: driver boards %d must evenly divide %d mirrors", cfg.DriverBoards, cfg.MirrorsPerDie)
	}
	s := &Switch{
		cfg:        cfg,
		conn:       make([]int, cfg.Radix),
		rconn:      make([]int, cfg.Radix),
		loss:       make([]float64, cfg.Radix),
		southSeen:  make([]uint32, cfg.Radix),
		boards:     make([]bool, cfg.DriverBoards),
		portFailed: make([]bool, cfg.Radix),
		portRL:     make([]float64, cfg.Radix),
		psu:        [2]bool{true, true},
		fans:       make([]bool, 4),
		up:         true,
		mfg:        sim.NewRand(cfg.Seed),
	}
	for i := range s.conn {
		s.conn[i], s.rconn[i] = -1, -1
	}
	for b := range s.boards {
		s.boards[b] = true
	}
	for f := range s.fans {
		s.fans[f] = true
	}
	for d := 0; d < 2; d++ {
		s.dies[d] = die{
			quality: make([]float64, cfg.MirrorsPerDie),
			ok:      make([]bool, cfg.MirrorsPerDie),
		}
		for m := 0; m < cfg.MirrorsPerDie; m++ {
			// Per-mirror loss contribution: mean 0.30 dB, sigma 0.08,
			// floored at a physical minimum.
			q := 0.30 + 0.08*s.mfg.NormFloat64()
			if q < 0.10 {
				q = 0.10
			}
			s.dies[d].quality[m] = q
			s.dies[d].ok[m] = true
		}
		s.portMirror[d] = selectBestMirrors(s.dies[d].quality, cfg.Radix)
	}
	for p := 0; p < cfg.Radix; p++ {
		// Return loss: typically −46 dB with manufacturing spread
		// (Fig 10b); spec is < −38 dB.
		rl := -46 + 1.5*s.mfg.NormFloat64()
		if rl > ReturnLossCeilingDB {
			rl = ReturnLossCeilingDB - s.mfg.Float64()
		}
		s.portRL[p] = rl
	}
	if cfg.Metrics != nil {
		s.metricLoss = cfg.Metrics.Distribution("ocs.insertion_loss_db", 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
		s.metricReconf = cfg.Metrics.Counter("ocs.reconfigurations")
		s.metricDrops = cfg.Metrics.Counter("ocs.circuits_dropped_by_fru")
	}
	return s, nil
}

// NewSwitches builds n switches from cfg. Switch i's seed is
// cfg.Seed + i·0x9E37, so units differ like real hardware.
func NewSwitches(n int, cfg Config) ([]*Switch, error) {
	sws := make([]*Switch, n)
	for i := range sws {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9E37
		sw, err := New(c)
		if err != nil {
			return nil, err
		}
		sws[i] = sw
	}
	return sws, nil
}

// selectBestMirrors returns, for each port, the index of the mirror assigned
// to it: the n lowest-loss mirrors in fabrication order. The n-th lowest
// quality is the cut; every mirror below it is kept, and of those exactly
// at it the lowest-index ones until n are — the choice a stable sort by
// quality makes. Qualities are finite (New floors them).
func selectBestMirrors(quality []float64, n int) []int {
	var buf [256]float64
	cut := nthSmallest(append(buf[:0], quality...), n-1)
	ties := n // mirrors kept at the cut: n less those strictly below it
	for _, q := range quality {
		if q < cut {
			ties--
		}
	}
	best := make([]int, 0, n)
	for m, q := range quality {
		if q < cut || (q == cut && ties > 0) {
			if q == cut {
				ties--
			}
			best = append(best, m)
		}
	}
	return best
}

// nthSmallest returns the value sorting v would put at index k, reordering
// v in place: a quickselect whose three-way partition settles every value
// equal to the pivot at once, so a die thick with equal qualities costs no
// more than a varied one.
func nthSmallest(v []float64, k int) float64 {
	lo, hi := 0, len(v) // v[k] is in v[lo:hi]
	for {
		p := v[lo+(hi-lo)/2]
		// v[lo:lt] < p, v[lt:i] == p, v[gt:hi] > p, v[i:gt] unread.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case v[i] < p:
				v[lt], v[i] = v[i], v[lt]
				lt++
				i++
			case v[i] > p:
				gt--
				v[i], v[gt] = v[gt], v[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
}

// Radix returns the number of duplex ports.
func (s *Switch) Radix() int { return s.cfg.Radix }

// UsablePorts returns the number of production (non-spare) ports.
func (s *Switch) UsablePorts() int { return s.cfg.Radix - s.cfg.SparePorts }

// Up reports whether the chassis is serving (power and cooling redundancy
// not exhausted).
func (s *Switch) Up() bool { return s.up }

func (s *Switch) checkPort(p PortID) error {
	if int(p) < 0 || int(p) >= s.cfg.Radix {
		return fmt.Errorf("%w: %d (radix %d)", ErrPortRange, p, s.cfg.Radix)
	}
	if s.portFailed[p] {
		return fmt.Errorf("%w: %d", ErrPortFailed, p)
	}
	return nil
}

// boardOf returns the driver board actuating mirror m.
func (s *Switch) boardOf(m int) int {
	return m / (s.cfg.MirrorsPerDie / s.cfg.DriverBoards)
}

// portDrivable reports whether both mirrors serving port p have healthy
// mirrors and powered driver boards.
func (s *Switch) portDrivable(p PortID) bool {
	for d := 0; d < 2; d++ {
		m := s.portMirror[d][p]
		if !s.dies[d].ok[m] || !s.boards[s.boardOf(m)] {
			return false
		}
	}
	return true
}

// Connect establishes a North→South circuit and returns it. The connection
// runs the camera-feedback alignment loop, so setup time is
// mirrorSettle + alignIterations×alignRound and the final loss includes a
// small alignment residual.
func (s *Switch) Connect(north, south PortID) (Circuit, error) {
	if !s.up {
		return Circuit{}, ErrSwitchDown
	}
	if err := s.checkPort(north); err != nil {
		return Circuit{}, err
	}
	if err := s.checkPort(south); err != nil {
		return Circuit{}, err
	}
	if s.conn[north] != -1 {
		return Circuit{}, fmt.Errorf("%w: north %d", ErrPortBusy, north)
	}
	if s.rconn[south] != -1 {
		return Circuit{}, fmt.Errorf("%w: south %d", ErrPortBusy, south)
	}
	if !s.portDrivable(north) {
		return Circuit{}, fmt.Errorf("%w: north %d mirror undrivable", ErrPortFailed, north)
	}
	if !s.portDrivable(south) {
		return Circuit{}, fmt.Errorf("%w: south %d mirror undrivable", ErrPortFailed, south)
	}
	loss := s.establish(north, south, s.IntrinsicLossDB(north, south))
	return Circuit{North: north, South: south, InsertionLossDB: loss, SetupTime: setupTime}, nil
}

// establish aligns a circuit between a free, healthy, drivable north and
// south port from the path's intrinsic loss floor, records it and returns
// its settled loss.
func (s *Switch) establish(north, south PortID, floor float64) float64 {
	loss := s.align(north, south, floor)
	s.conn[north] = int(south)
	s.rconn[south] = int(north)
	s.loss[north] = loss
	s.circuits++
	if s.metricReconf != nil {
		s.metricReconf.Inc()
	}
	if s.metricLoss != nil {
		s.metricLoss.Observe(loss)
	}
	return loss
}

// align runs the simulated closed-loop camera alignment for a path and
// returns the settled insertion loss; it takes setupTime. Alignment starts
// from a coarse open-loop pointing error and converges geometrically
// toward floor, the path's intrinsic loss floor, mirroring the
// image-feedback loop of §3.2.2.
func (s *Switch) align(north, south PortID, floor float64) float64 {
	// Open-loop pointing error before feedback: up to a few dB excess.
	r := s.pairRand(north, south, 0xA11)
	excess := 1.5 + 1.0*r.Float64()
	for i := 0; i < alignIterations; i++ {
		excess *= 0.35 // each camera round removes ~65% of residual error
	}
	// Residual jitter of the servo.
	res := 0.02 + 0.02*r.Float64()
	return floor + excess + res
}

// IntrinsicLossDB returns the manufacturing loss floor of the optical path
// north→south: both collimators, both mirrors, and the fiber splice and
// connector variation of the port pair. It is deterministic for a given
// physical unit (seed) and does not require the circuit to be connected —
// the paper's Fig 10a histogram samples all Radix² cross-connections this
// way.
func (s *Switch) IntrinsicLossDB(north, south PortID) float64 {
	r := s.pairRand(north, south, 0x10)
	// Collimator insertion per side: mean 0.35 dB.
	col := 0.35 + 0.05*r.NormFloat64()
	if col < 0.15 {
		col = 0.15
	}
	col2 := 0.35 + 0.05*r.NormFloat64()
	if col2 < 0.15 {
		col2 = 0.15
	}
	// Mirror contributions from the two dies' assigned mirrors.
	m1 := s.dies[0].quality[s.portMirror[0][north]]
	m2 := s.dies[1].quality[s.portMirror[1][south]]
	// Splice/connector variation: mostly tight, occasional heavy tail —
	// the paper attributes the histogram tail to exactly this.
	splice := 0.25 + 0.08*r.NormFloat64()
	if splice < 0.05 {
		splice = 0.05
	}
	if r.Float64() < 0.06 {
		splice += r.ExpFloat64() * 0.35
	}
	return col + col2 + m1 + m2 + splice
}

// pairRand derives a deterministic stream for a port pair and purpose tag.
func (s *Switch) pairRand(a, b PortID, tag uint64) *sim.Rand {
	seed := s.cfg.Seed
	seed = seed*0x9E3779B97F4A7C15 + uint64(a) + 1
	seed = seed*0x9E3779B97F4A7C15 + uint64(b) + 1
	seed = seed*0x9E3779B97F4A7C15 + tag
	return sim.NewRand(seed)
}

// ReturnLossDB returns the return loss of port p in dB (a negative number;
// more negative is better). Spec is < −38 dB.
func (s *Switch) ReturnLossDB(p PortID) (float64, error) {
	if int(p) < 0 || int(p) >= s.cfg.Radix {
		return 0, ErrPortRange
	}
	return s.portRL[p], nil
}

// Disconnect tears down the circuit on north. Teardown is fast (mirrors are
// simply parked).
func (s *Switch) Disconnect(north PortID) error {
	if int(north) < 0 || int(north) >= s.cfg.Radix {
		return ErrPortRange
	}
	if s.conn[north] == -1 {
		return fmt.Errorf("%w: north %d", ErrNotConnected, north)
	}
	s.disconnect(north)
	return nil
}

// disconnect parks the mirrors of a connected north port.
func (s *Switch) disconnect(north PortID) {
	so := s.conn[north]
	s.conn[north] = -1
	s.rconn[so] = -1
	s.loss[north] = 0
	s.circuits--
}

// ConnectionOf returns the south port connected to north, if any.
func (s *Switch) ConnectionOf(north PortID) (PortID, bool) {
	if int(north) < 0 || int(north) >= s.cfg.Radix || s.conn[north] == -1 {
		return 0, false
	}
	return PortID(s.conn[north]), true
}

// Circuits returns all established circuits in north-port order.
func (s *Switch) Circuits() []Circuit {
	var cs []Circuit
	for n, so := range s.conn {
		if so == -1 {
			continue
		}
		cs = append(cs, Circuit{
			North:           PortID(n),
			South:           PortID(so),
			InsertionLossDB: s.loss[n],
		})
	}
	return cs
}

// NumCircuits returns the number of established circuits.
func (s *Switch) NumCircuits() int { return s.circuits }
