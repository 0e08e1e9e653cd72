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
	"sort"

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
	// Metrics and Alerts receive telemetry; nil disables them.
	Metrics *telemetry.Registry
	Alerts  telemetry.AlertSink
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
	// maxBER is stack.MaxInputBER(maxPostFECBER): the FEC transfer curve
	// is monotone, so "post-FEC BER > maxPostFECBER" is "pre-FEC BER >
	// maxBER" and the per-circuit check is a comparison.
	maxBER float64
}

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
		},
	}
	f.rx.maxBER = f.rx.stack.MaxInputBER(maxPostFECBER)
	for i := 0; i < topo.NumOCS; i++ {
		oc := cfg.OCS
		oc.Seed = cfg.OCS.Seed + uint64(i)*0x9E37
		oc.Metrics = cfg.Metrics
		sw, err := ocs.New(oc)
		if err != nil {
			return nil, fmt.Errorf("core: building OCS %d: %w", i, err)
		}
		f.switches = append(f.switches, sw)
	}
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

// disconnectCircuit tears circuit r down if it is established.
func (f *Fabric) disconnectCircuit(r topo.CircuitReq) error {
	if !f.circuitLive(r) {
		return nil
	}
	return f.switches[r.OCS].Disconnect(f.PortFor(r.OCS, r.North))
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
	for _, c := range cubes {
		if c < 0 || c >= 64 {
			return nil, fmt.Errorf("%w: %d", ErrCubeRange, c)
		}
		if !f.installed[c] {
			return nil, fmt.Errorf("%w: %d", ErrNotInstalled, c)
		}
		if !f.healthy[c] {
			return nil, fmt.Errorf("%w: %d", ErrCubeUnhealthy, c)
		}
		if f.owner[c] != "" {
			return nil, fmt.Errorf("%w: %d (slice %q)", ErrCubeBusy, c, f.owner[c])
		}
	}
	sl, err := topo.ComposeSlice(shape, cubes)
	if err != nil {
		return nil, err
	}
	reqs := sl.RequiredCircuits()

	// Pre-validate every circuit's optical budget on its target OCS.
	margins, err := f.validateBudgets(reqs)
	if err != nil {
		return nil, err
	}
	if err := f.applyCircuits(reqs); err != nil {
		return nil, err
	}
	f.observeMargins(margins)

	worst := 1e9
	for _, m := range margins {
		if m < worst {
			worst = m
		}
	}
	s := &Slice{Name: name, Shape: shape, Cubes: append([]int(nil), cubes...),
		Circuits: reqs, WorstMarginDB: worst}
	f.slices[name] = s
	for _, c := range cubes {
		f.owner[c] = name
	}
	if f.metricSlices != nil {
		f.metricSlices.Inc()
	}
	return s, nil
}

// circuitBudget computes one circuit's optical budget on its target OCS
// through the current port map.
//
//lwlint:hotpath
func (f *Fabric) circuitBudget(r topo.CircuitReq) (optics.Budget, error) {
	sw := f.switches[r.OCS]
	north := f.PortFor(r.OCS, r.North)
	loss := sw.IntrinsicLossDB(north, f.PortFor(r.OCS, r.South)) + 0.1 // alignment residual allowance
	rl, err := sw.ReturnLossDB(north)
	if err != nil {
		return optics.Budget{}, err
	}
	return f.rx.path.Budget(loss, rl), nil
}

// validateBudgets checks each circuit's optical budget and post-FEC BER
// and returns the circuits' link margins in request order. Nothing is
// programmed or recorded here: the caller observes the margins once
// applyCircuits has accepted the circuits.
//
//lwlint:hotpath
func (f *Fabric) validateBudgets(reqs []topo.CircuitReq) ([]float64, error) {
	//lwlint:ignore hotalloc one buffer per call; the per-circuit loop below is what stays allocation-free
	margins := make([]float64, len(reqs))
	for i, r := range reqs {
		bud, err := f.circuitBudget(r)
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
		margins[i] = bud.MarginDB
	}
	return margins, nil
}

func errMargin(r topo.CircuitReq, marginDB float64) error {
	return fmt.Errorf("%w: circuit ocs=%d %d->%d margin %.2f dB",
		ErrLinkBudget, r.OCS, r.North, r.South, marginDB)
}

func errPostFEC(r topo.CircuitReq, postFECBER float64) error {
	return fmt.Errorf("%w: circuit ocs=%d %d->%d post-FEC BER %.2g",
		ErrLinkBudget, r.OCS, r.North, r.South, postFECBER)
}

// observeMargins records the margins of circuits that were validated and
// then programmed on the link-margin metric, so the distribution only ever
// holds links the fabric relies on.
func (f *Fabric) observeMargins(margins []float64) {
	if f.metricMargin == nil {
		return
	}
	for _, m := range margins {
		f.metricMargin.Observe(m)
	}
}

// refreshWorstMargin recomputes a slice's WorstMarginDB from the circuits
// it holds now. Every path that rewires part of a slice (reshape, cube
// swap, link repair) ends here, so the figure is a function of the
// slice's current circuits and port map — not of how it got there, which
// is what lets a snapshot restore reproduce it. The circuits were already
// validated (and observed on the margin metric) when they were programmed.
func (f *Fabric) refreshWorstMargin(s *Slice) error {
	worst := 1e9
	for _, r := range s.Circuits {
		bud, err := f.circuitBudget(r)
		if err != nil {
			return err
		}
		if bud.MarginDB < worst {
			worst = bud.MarginDB
		}
	}
	s.WorstMarginDB = worst
	return nil
}

// applyCircuits programs the circuits, one batch permutation per OCS, in
// OCS id order. It is all-or-nothing across switches: when a switch
// refuses its batch, every circuit this call established on the switches
// before it is disconnected again, so a failed compose, reshape, cube swap
// or link repair leaves no live circuit that no slice owns. (Callers hand
// it circuits over free ports, so there is nothing displaced to restore.)
func (f *Fabric) applyCircuits(reqs []topo.CircuitReq) error {
	var perOCS [topo.NumOCS]ocs.Permutation
	for _, r := range reqs {
		if perOCS[r.OCS] == nil {
			perOCS[r.OCS] = ocs.Permutation{}
		}
		perOCS[r.OCS][f.PortFor(r.OCS, r.North)] = f.PortFor(r.OCS, r.South)
	}
	var established [topo.NumOCS][]ocs.Circuit
	for id, p := range perOCS {
		if p == nil {
			continue
		}
		res, err := f.switches[id].Apply(p)
		established[id] = res.Established
		if err != nil {
			for undo := id; undo >= 0; undo-- {
				for _, c := range established[undo] {
					// The circuit was connected a moment ago by this call;
					// the only way Disconnect fails is that something
					// already dropped it, which is the state wanted.
					_ = f.switches[undo].Disconnect(c.North)
				}
			}
			return fmt.Errorf("core: programming OCS %d: %w", id, err)
		}
	}
	return nil
}

// DestroySlice tears a slice down and frees its cubes.
func (f *Fabric) DestroySlice(name string) error {
	s, ok := f.slices[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSlice, name)
	}
	for _, r := range s.Circuits {
		if err := f.disconnectCircuit(r); err != nil {
			return err
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
