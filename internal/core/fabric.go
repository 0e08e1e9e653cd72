// Package core implements the lightwave fabric control plane — the paper's
// primary software contribution. A Fabric owns the pod's OCS fleet (48
// Palomar switches wired per Appendix A), the transceiver plant, and the
// cube inventory. It composes and destroys workload-sized slices by
// programming OCS cross-connects (validating the optical budget of every
// circuit before relying on it), guarantees that reconfiguration never
// disturbs circuits of other slices (job isolation, §2.3), swaps failed
// cubes out of running slices (§4.2.2), and exports telemetry with
// anomaly-based alerting (§3.2.2).
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"

	"lightwave/internal/dsp"
	"lightwave/internal/fec"
	"lightwave/internal/ocs"
	"lightwave/internal/optics"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// Config parameterizes a fabric.
type Config struct {
	// Cubes is the number of installed elemental cubes (≤ 64); cubes can
	// be added later (incremental deployment, §4.2.3).
	Cubes int
	// Transceiver is the module generation on every cube link.
	Transceiver optics.Generation
	// Circulator is the circulator model in the bidi modules.
	Circulator optics.Circulator
	// OCS configures each Palomar switch; Seed is perturbed per switch so
	// units differ like real hardware.
	OCS ocs.Config
	// FiberKM is the typical cube-to-OCS-to-cube fiber length.
	FiberKM float64
	// SafetyMarginDB is the minimum accepted link margin.
	SafetyMarginDB float64
	// Metrics receives telemetry and Log the BER detectors' alerts; nil
	// disables each.
	Metrics *telemetry.Registry
	Log     *slog.Logger
}

// DefaultConfig returns a production-style configuration with the 2x200G
// bidi CWDM4 module.
func DefaultConfig(cubes int) Config {
	gen, err := optics.GenerationByName("2x200G-bidi-CWDM4")
	if err != nil {
		panic(err)
	}
	return Config{
		Cubes:          cubes,
		Transceiver:    gen,
		Circulator:     optics.DefaultCirculator(),
		OCS:            ocs.DefaultConfig(),
		FiberKM:        0.12,
		SafetyMarginDB: 1.0,
	}
}

// Slice is a composed sub-machine.
type Slice struct {
	Name  string
	Shape topo.Shape
	Cubes []int
	// Circuits are the OCS cross-connections realizing the slice.
	Circuits []topo.CircuitReq
	// WorstMarginDB is the lowest link margin among the slice's circuits.
	WorstMarginDB float64
}

// Errors returned by the fabric.
var (
	ErrCubeRange     = errors.New("core: cube out of range")
	ErrCubeBusy      = errors.New("core: cube already in a slice")
	ErrCubeUnhealthy = errors.New("core: cube unhealthy")
	ErrSliceExists   = errors.New("core: slice name in use")
	ErrNoSlice       = errors.New("core: no such slice")
	ErrLinkBudget    = errors.New("core: insufficient optical link margin")
	ErrNoSpareCube   = errors.New("core: no healthy free cube for swap")
	ErrNotInstalled  = errors.New("core: cube not installed")
)

// Fabric is the control plane of one superpod lightwave fabric.
type Fabric struct {
	cfg      Config
	switches []*ocs.Switch // indexed by topo.OCSID

	installed []bool
	healthy   []bool
	owner     []string // slice name per cube, "" when free

	slices map[string]*Slice

	// portMap records spare-port repatches: (OCS, cube) → physical port.
	// Absent entries use the identity wiring of the cable plan (port =
	// cube id).
	portMap map[portKey]ocs.PortID

	rx admission

	// perms holds one transition's per-OCS permutations; realize empties
	// it once ocs.ApplyAll has answered, keeping only the capacity.
	perms [topo.NumOCS]ocs.Permutation

	metricSlices *telemetry.Counter
	metricSwaps  *telemetry.Counter
	metricMargin *telemetry.Distribution
	berDetectors map[string]*telemetry.Detector
}

// maxPostFECBER is the post-FEC bit error ratio a circuit must reach at its
// delivered power and MPI to be admitted.
const maxPostFECBER = 1e-12

// admission bundles the models every circuit's budget is validated against.
// All of it depends on the fabric's configuration alone, so it is built
// once in New; per circuit only the OCS element's losses enter.
type admission struct {
	// path is a cube link with its OCS element left open.
	path     optics.BidiPath
	receiver dsp.PreparedReceiver
	stack    fec.Concatenated
	// maxBER is maxInputBER(): the FEC transfer curve is monotone, so
	// "post-FEC BER > maxPostFECBER" is "pre-FEC BER > maxBER" and the
	// per-circuit check is a comparison.
	maxBER float64
}

// maxInputBER bisects the FEC stack for the highest pre-FEC BER that meets
// maxPostFECBER. Its inputs are constants, so it runs once per process.
var maxInputBER = sync.OnceValue(func() float64 {
	return fec.NewConcatenated().MaxInputBER(maxPostFECBER)
})

// New builds the fabric: 48 OCSes (Appendix A wiring) and the installed
// cube inventory.
func New(cfg Config) (*Fabric, error) {
	if cfg.Cubes < 1 || cfg.Cubes > 64 {
		return nil, fmt.Errorf("core: cube count %d out of range [1,64]", cfg.Cubes)
	}
	f := &Fabric{
		cfg:          cfg,
		installed:    make([]bool, 64),
		healthy:      make([]bool, 64),
		owner:        make([]string, 64),
		slices:       make(map[string]*Slice),
		portMap:      make(map[portKey]ocs.PortID),
		berDetectors: make(map[string]*telemetry.Detector),
		rx: admission{
			path: optics.NewBidiPath(optics.NewTransceiver(cfg.Transceiver), optics.NewTransceiver(cfg.Transceiver),
				cfg.Circulator, cfg.FiberKM),
			receiver: dsp.DefaultReceiver().Prepare(),
			stack:    fec.NewConcatenated(),
			maxBER:   maxInputBER(),
		},
	}
	oc := cfg.OCS
	oc.Metrics = cfg.Metrics
	sws, err := ocs.NewSwitches(topo.NumOCS, oc)
	if err != nil {
		return nil, fmt.Errorf("core: building OCSes: %w", err)
	}
	f.switches = sws
	for c := 0; c < cfg.Cubes; c++ {
		f.installed[c] = true
		f.healthy[c] = true
	}
	if cfg.Metrics != nil {
		f.metricSlices = cfg.Metrics.Counter("fabric.slices_composed")
		f.metricSwaps = cfg.Metrics.Counter("fabric.cube_swaps")
		f.metricMargin = cfg.Metrics.Distribution("fabric.link_margin_db", 0, 1, 2, 3, 5, 8)
	}
	return f, nil
}

// Metrics returns the fabric's telemetry registry (nil when metrics were
// not configured).
func (f *Fabric) Metrics() *telemetry.Registry { return f.cfg.Metrics }

// portKey addresses one cube's fiber pair on one OCS.
type portKey struct {
	o    topo.OCSID
	cube int
}

// PortFor returns the physical OCS port carrying a cube's fibers on an
// OCS: the cable-plan identity unless a spare-port repair repatched it.
func (f *Fabric) PortFor(o topo.OCSID, cube int) ocs.PortID {
	if p, ok := f.portMap[portKey{o, cube}]; ok {
		return p
	}
	return ocs.PortID(cube)
}

// circuitLive reports whether circuit r is established on the hardware.
func (f *Fabric) circuitLive(r topo.CircuitReq) bool {
	sw := f.switches[r.OCS]
	got, ok := sw.ConnectionOf(f.PortFor(r.OCS, r.North))
	return ok && got == f.PortFor(r.OCS, r.South)
}

// InstalledCubes returns the number of installed cubes.
func (f *Fabric) InstalledCubes() int {
	n := 0
	for _, ok := range f.installed {
		if ok {
			n++
		}
	}
	return n
}

// FreeCubes returns the healthy, unallocated, installed cube ids.
func (f *Fabric) FreeCubes() []int {
	var out []int
	for c := range f.installed {
		if f.installed[c] && f.healthy[c] && f.owner[c] == "" {
			out = append(out, c)
		}
	}
	return out
}

// InstallCube adds a new cube to the fabric — the "pay as you grow"
// incremental deployment of §4.2.3: the cube is verified at rack level and
// becomes schedulable immediately, with no recabling of existing cubes.
func (f *Fabric) InstallCube(c int) error {
	if c < 0 || c >= 64 {
		return ErrCubeRange
	}
	f.installed[c] = true
	f.healthy[c] = true
	return nil
}

// Switch exposes one OCS for inspection and fault injection.
func (f *Fabric) Switch(id topo.OCSID) (*ocs.Switch, error) {
	if int(id) < 0 || int(id) >= len(f.switches) {
		return nil, fmt.Errorf("core: OCS %d out of range", id)
	}
	return f.switches[id], nil
}

// Slices returns the composed slices sorted by name.
func (f *Fabric) Slices() []*Slice {
	out := make([]*Slice, 0, len(f.slices))
	for _, s := range f.slices {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GetSlice returns a slice by name.
func (f *Fabric) GetSlice(name string) (*Slice, error) {
	s, ok := f.slices[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSlice, name)
	}
	return s, nil
}

// ComposeSlice builds a slice of the given shape from the given cubes: it
// validates cube state, generates the torus circuits, checks every
// circuit's optical budget, and programs the OCSes. Existing slices are
// provably untouched (the OCS Apply primitive rejects any permutation that
// would steal a port).
func (f *Fabric) ComposeSlice(name string, shape topo.Shape, cubes []int) (*Slice, error) {
	if _, exists := f.slices[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrSliceExists, name)
	}
	s := &Slice{Name: name}
	if err := f.place(s, shape, cubes); err != nil {
		return nil, err
	}
	f.slices[name] = s
	if f.metricSlices != nil {
		f.metricSlices.Inc()
	}
	return s, nil
}

// ReshapeSlice changes a running slice's torus shape in place — the "late
// binding after hardware is deployed" capability of §4.2.1 and the §6
// future-work direction of reshaping between training phases. The new
// shape may reuse the slice's cubes (pure reshape), grow onto free cubes,
// or shrink. Circuits shared between the old and new configuration are
// kept untouched; everything else is reprogrammed. Other slices are
// provably undisturbed.
//
// cubes may be nil to reuse the slice's current cube list (the new shape
// must then need exactly that many cubes).
func (f *Fabric) ReshapeSlice(name string, shape topo.Shape, cubes []int) (*Slice, error) {
	s, ok := f.slices[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSlice, name)
	}
	if cubes == nil {
		cubes = s.Cubes
	}
	if err := f.place(s, shape, cubes); err != nil {
		return nil, err
	}
	return s, nil
}

// EnsureSlice drives the fabric toward "slice name exists with this shape on
// these cubes" and reports whether any hardware state changed. It is the
// idempotent primitive the fleet reconciler (internal/fleet) retries after
// partial failures:
//
//   - no such slice: the slice is composed from the given cubes;
//   - slice exists and matches: any circuit torn down out-of-band is
//     re-admitted and re-programmed, otherwise nothing happens;
//   - slice exists with a different shape or cube set: the slice is reshaped
//     in place.
//
// A nil or empty cubes list means "whatever cubes the slice already has" for
// an existing slice; for a new slice it is an error (the caller owns
// placement).
func (f *Fabric) EnsureSlice(name string, shape topo.Shape, cubes []int) (*Slice, bool, error) {
	s, ok := f.slices[name]
	if !ok {
		if len(cubes) == 0 {
			return nil, false, fmt.Errorf("core: ensure %q: no cubes given for a new slice", name)
		}
		s, err := f.ComposeSlice(name, shape, cubes)
		return s, err == nil, err
	}
	if len(cubes) == 0 {
		cubes = s.Cubes
	}
	if s.Shape != shape || !slices.Equal(s.Cubes, cubes) {
		s, err := f.ReshapeSlice(name, shape, cubes)
		return s, err == nil, err
	}
	n, err := f.realize(s, shape, cubes, func(topo.CircuitReq) bool { return true }) // heal
	if err != nil {
		return nil, false, fmt.Errorf("core: ensure %q: re-programming %d circuits: %w", name, n, err)
	}
	return s, n > 0, nil
}

// place realizes slice s as shape on cubes, which compose and reshape
// admit first: each must be in range, installed, healthy, and free or
// already s's.
func (f *Fabric) place(s *Slice, shape topo.Shape, cubes []int) error {
	for _, c := range cubes {
		switch {
		case c < 0 || c >= 64:
			return fmt.Errorf("%w: %d", ErrCubeRange, c)
		case !f.installed[c]:
			return fmt.Errorf("%w: %d", ErrNotInstalled, c)
		case !f.healthy[c]:
			return fmt.Errorf("%w: %d", ErrCubeUnhealthy, c)
		case f.owner[c] != "" && f.owner[c] != s.Name:
			return fmt.Errorf("%w: %d (slice %q)", ErrCubeBusy, c, f.owner[c])
		}
	}
	_, err := f.realize(s, shape, cubes, nil)
	return err
}

// realize is the fabric's one slice transition: compose, reshape, cube
// swap, link repair and ensure-heal all move slice s to shape on cubes
// through it, as one diff against the switches. Fresh circuits are the
// derived ones that are not live and are new to s, or are s's own dark
// circuits that revive picks (nil picks none, so a reshape or swap keeps
// an FRU-dropped circuit as dark as it was); stale ones are live circuits
// of s that the derived set drops. It validates the fresh budgets, then
// tears the stale circuits down and programs the fresh ones as one
// ocs.ApplyAll transaction, so a refused transition leaves the fabric and
// s as they were. It reports the number of fresh circuits; an intent
// already in place costs no budget and no allocation.
func (f *Fabric) realize(s *Slice, shape topo.Shape, cubes []int, revive func(topo.CircuitReq) bool) (int, error) {
	reqs := s.Circuits
	same := reqs != nil && s.Shape == shape && slices.Equal(s.Cubes, cubes)
	var old map[topo.CircuitReq]bool // s's circuits, when the derived set differs
	if !same {
		sl, err := topo.ComposeSlice(shape, cubes)
		if err != nil {
			return 0, err
		}
		reqs, old = sl.RequiredCircuits(), make(map[topo.CircuitReq]bool, len(s.Circuits))
		for _, r := range s.Circuits {
			old[r] = true
		}
	}
	isFresh := func(r topo.CircuitReq) bool {
		return !f.circuitLive(r) && (!same && !old[r] || revive != nil && revive(r))
	}
	if same && !slices.ContainsFunc(reqs, isFresh) {
		return 0, nil
	}

	// Kept circuits' margins come from circuitBudget, fresh ones' from
	// validation. Until a circuit is kept (a compose), fresh is reqs. A
	// kept circuit leaves old, so the live circuits left in old are the
	// stale ones: a fresh circuit is dark.
	fresh, worst := reqs, 1e9
	if slices.ContainsFunc(reqs, func(r topo.CircuitReq) bool { return !isFresh(r) }) {
		fresh = nil
		for _, r := range reqs {
			if isFresh(r) {
				fresh = append(fresh, r)
				continue
			}
			delete(old, r)
			bud, err := f.circuitBudget(r)
			if err != nil {
				return 0, err
			}
			worst = min(worst, bud.MarginDB)
		}
	}
	admitted, err := f.validateBudgets(fresh)
	if err != nil {
		return len(fresh), err
	}
	for _, a := range admitted {
		worst = min(worst, a.marginDB)
	}

	// One permutation per OCS: the stale circuits go dark and the fresh
	// ones are set up, on ports a stale one may free. A fresh circuit's
	// move carries the floor its admission evaluated, which the switch
	// aligns from.
	for _, r := range s.Circuits {
		if old[r] && f.circuitLive(r) {
			f.perms[r.OCS] = append(f.perms[r.OCS], ocs.Move{North: f.PortFor(r.OCS, r.North), South: ocs.Dark})
		}
	}
	for i, r := range fresh {
		f.perms[r.OCS] = append(f.perms[r.OCS], admitted[i].move)
	}
	err = ocs.ApplyAll(f.switches, f.perms[:])
	for o, p := range f.perms {
		clear(p)
		f.perms[o] = p[:0]
	}
	if err != nil {
		return len(fresh), fmt.Errorf("core: programming %w", err)
	}

	if f.metricMargin != nil {
		for _, a := range admitted {
			f.metricMargin.Observe(a.marginDB)
		}
	}
	for _, c := range s.Cubes {
		f.owner[c] = ""
	}
	for _, c := range cubes {
		f.owner[c] = s.Name
	}
	s.Shape, s.Cubes, s.Circuits, s.WorstMarginDB = shape, slices.Clone(cubes), reqs, worst
	return len(fresh), nil
}

// circuitBudget computes one circuit's optical budget on its target OCS
// through the current port map.
//
//lwlint:hotpath
func (f *Fabric) circuitBudget(r topo.CircuitReq) (optics.Budget, error) {
	bud, _, err := f.price(r)
	return bud, err
}

// price evaluates circuit r's move on its OCS through the current port
// map — the path's intrinsic loss floor, once — and the optical budget
// that floor gives.
//
//lwlint:hotpath
func (f *Fabric) price(r topo.CircuitReq) (optics.Budget, ocs.Move, error) {
	sw := f.switches[r.OCS]
	m := sw.Move(f.PortFor(r.OCS, r.North), f.PortFor(r.OCS, r.South))
	rl, err := sw.ReturnLossDB(m.North)
	if err != nil {
		return optics.Budget{}, m, err
	}
	return f.rx.path.Budget(m.FloorDB()+0.1, rl), m, nil // alignment residual allowance
}

// admitted is a circuit validateBudgets admitted: its move, floor
// evaluated, and its link margin.
type admitted struct {
	move     ocs.Move
	marginDB float64
}

// validateBudgets checks each circuit's optical budget and post-FEC BER
// and returns the admitted circuits in request order. Nothing is
// programmed or recorded here: realize programs the moves and observes
// the margins once the switches have accepted them.
//
//lwlint:hotpath
func (f *Fabric) validateBudgets(reqs []topo.CircuitReq) ([]admitted, error) {
	//lwlint:ignore hotalloc one buffer per call; the per-circuit loop below is what stays allocation-free
	out := make([]admitted, len(reqs))
	for i, r := range reqs {
		bud, m, err := f.price(r)
		if err != nil {
			return nil, err
		}
		if bud.MarginDB < f.cfg.SafetyMarginDB {
			return nil, errMargin(r, bud.MarginDB)
		}
		// End-to-end check: post-FEC BER must be clean at the delivered
		// power with the link's MPI. The threshold form decides it; the
		// transfer curve itself is only evaluated to word a rejection.
		ber := f.rx.receiver.BER(bud.RxPowerDBm, dsp.MPICondition{MPIDB: bud.MPIDB, OIM: true})
		if ber > f.rx.maxBER {
			return nil, errPostFEC(r, f.rx.stack.Transfer(ber))
		}
		out[i] = admitted{m, bud.MarginDB}
	}
	return out, nil
}

func errMargin(r topo.CircuitReq, marginDB float64) error {
	return fmt.Errorf("%w: circuit ocs=%d %d->%d margin %.2f dB",
		ErrLinkBudget, r.OCS, r.North, r.South, marginDB)
}

func errPostFEC(r topo.CircuitReq, postFECBER float64) error {
	return fmt.Errorf("%w: circuit ocs=%d %d->%d post-FEC BER %.2g",
		ErrLinkBudget, r.OCS, r.North, r.South, postFECBER)
}

// refreshWorstMargin recomputes a slice's WorstMarginDB from its circuits
// and the port map, as realize does: for a snapshot restore, and for a link
// repair whose circuits could not come back.
func (f *Fabric) refreshWorstMargin(s *Slice) error {
	worst := 1e9
	for _, r := range s.Circuits {
		bud, err := f.circuitBudget(r)
		if err != nil {
			return err
		}
		worst = min(worst, bud.MarginDB)
	}
	s.WorstMarginDB = worst
	return nil
}

// DestroySlice tears a slice down and frees its cubes.
func (f *Fabric) DestroySlice(name string) error {
	s, ok := f.slices[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSlice, name)
	}
	for _, r := range s.Circuits {
		if f.circuitLive(r) { // a live circuit's Disconnect cannot fail
			_ = f.switches[r.OCS].Disconnect(f.PortFor(r.OCS, r.North))
		}
	}
	for _, c := range s.Cubes {
		if f.owner[c] == name {
			f.owner[c] = ""
		}
	}
	delete(f.slices, name)
	return nil
}

// TotalCircuits returns the number of live circuits across the fleet.
func (f *Fabric) TotalCircuits() int {
	n := 0
	for _, sw := range f.switches {
		n += sw.NumCircuits()
	}
	return n
}
