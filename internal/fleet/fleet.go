// Package fleet is the multi-pod reconciliation control plane sitting above
// internal/core. The paper's Pod Manager (§4.2) drives many OCSes per pod
// across many pods, and §3.2.2 stresses that deep integration of control and
// monitoring "was essential given that the switches had a large blast
// radius". A Manager owns N pods (each behind a Backend, typically a
// core.Fabric), accepts *intents* — the desired slice set per pod plus
// drain/undrain of pods and individual OCSes — and continuously reconciles
// actual state toward intent:
//
//	intent store → sharded work queue → per-pod reconcile workers → events
//
// One worker per pod keeps pods independent; a failing operation is retried
// with exponential backoff and jitter; a pod whose reconcile keeps failing is
// quarantined and alerted rather than allowed to wedge the fleet. Every
// transition is published on a subscription event stream and instrumented
// through internal/telemetry.
package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// SliceIntent is the desired state of one slice on one pod.
type SliceIntent struct {
	Name  string
	Shape topo.Shape
	// Cubes optionally pins placement; empty lets the backend place the
	// slice on free cubes.
	Cubes []int
}

// Options parameterizes a Manager.
type Options struct {
	// Metrics receives fleet instrumentation; nil creates a private
	// registry (exposed via Metrics()).
	Metrics *telemetry.Registry
	// Alerts receives quarantine alerts; nil disables alerting. A sink is
	// called with the pod's scope reserved: it must not mutate that pod.
	Alerts telemetry.AlertSink
	// BaseBackoff is the first retry delay after a failed reconcile
	// (default 50ms); each further failure doubles it up to MaxBackoff
	// (default 5s), with ±50% jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// QuarantineAfter is the consecutive-failure count that quarantines a
	// pod (default 5).
	QuarantineAfter int
	// Seed perturbs the per-pod jitter RNGs.
	Seed uint64
	// Journal, when set, receives every intent-store mutation before it
	// is applied plus quarantine/recovery decisions (see journal.go).
	// Nil disables journaling.
	Journal Journal
}

// Errors returned by the manager.
var (
	ErrClosed      = errors.New("fleet: manager closed")
	ErrNoPod       = errors.New("fleet: no such pod")
	ErrPodExists   = errors.New("fleet: pod already exists")
	ErrBadIntent   = errors.New("fleet: invalid intent")
	ErrQuarantined = errors.New("fleet: pod quarantined")
)

// Manager is the fleet control plane. All methods are safe for concurrent
// use.
type Manager struct {
	opts Options

	// addMu is add-pod's scope (a pod that does not exist yet has none of
	// its own); Close takes it too, so no registration straddles a Close.
	addMu sync.Mutex

	mu      sync.Mutex
	pods    map[string]*pod
	subs    map[int]*Subscription
	nextSub int
	seq     uint64
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup

	queueDepth      *telemetry.Gauge
	quarantinedPods *telemetry.Gauge
	retries         *telemetry.Counter
	backoffs        *telemetry.Counter
	quarantines     *telemetry.Counter
	convergence     *telemetry.Distribution
	watchDropped    *telemetry.Counter
}

// pod is one reconcile shard. Mutable fields are guarded by Manager.mu; the
// backend serializes its own hardware access.
type pod struct {
	name    string
	backend Backend
	kick    chan struct{} // cap 1: pending-work signal

	// The intent-scope reservation (see intake), taken before Manager.mu:
	// a pod-wide mutation holds scope exclusively, a keyed one shares it
	// and holds the keys shard its slice name or OCS id hashes to.
	scope sync.RWMutex
	keys  [scopeShards]sync.Mutex

	desired      map[string]SliceIntent
	pendingReady map[string]bool // slices awaiting a converged event
	pendingGone  map[string]bool // removals awaiting a removed event
	drained      bool
	drainedOCS   map[int]bool
	quarantined  bool
	recovering   bool // quarantine released; next convergence is a recovery
	failures     int  // consecutive reconcile failures
	gen          uint64
	dirty        bool
	dirtySince   time.Time
	lastErr      string

	reconciles *telemetry.Counter
	retries    *telemetry.Counter
	latency    *telemetry.Distribution
}

// NewManager builds an empty fleet.
func NewManager(opts Options) *Manager {
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	if opts.QuarantineAfter <= 0 {
		opts.QuarantineAfter = 5
	}
	reg := opts.Metrics
	return &Manager{
		opts: opts,
		pods: make(map[string]*pod),
		subs: make(map[int]*Subscription),
		done: make(chan struct{}),

		queueDepth:      reg.Gauge("fleet.queue_depth"),
		quarantinedPods: reg.Gauge("fleet.quarantined_pods"),
		retries:         reg.Counter("fleet.retries_total"),
		backoffs:        reg.Counter("fleet.backoffs_total"),
		quarantines:     reg.Counter("fleet.quarantines_total"),
		convergence:     reg.Distribution("fleet.convergence_seconds", 0.001, 0.01, 0.1, 1, 10, 60),
		watchDropped:    reg.Counter("fleet.watch_dropped_total"),
	}
}

// AddPod registers a pod and starts its reconcile worker.
func (m *Manager) AddPod(name string, b Backend) error {
	if name == "" || b == nil {
		return fmt.Errorf("%w: pod needs a name and a backend", ErrBadIntent)
	}
	m.addMu.Lock()
	defer m.addMu.Unlock()
	m.mu.Lock()
	_, exists := m.pods[name]
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if exists {
		return fmt.Errorf("%w: %q", ErrPodExists, name)
	}
	if err := m.journal(JournalEntry{Op: OpAddPod, Pod: name}); err != nil {
		return err
	}
	reg := m.opts.Metrics
	p := &pod{
		name:         name,
		backend:      b,
		kick:         make(chan struct{}, 1),
		desired:      make(map[string]SliceIntent),
		pendingReady: make(map[string]bool),
		pendingGone:  make(map[string]bool),
		drainedOCS:   make(map[int]bool),

		reconciles: reg.Counter("fleet.pod." + name + ".reconciles_total"),
		retries:    reg.Counter("fleet.pod." + name + ".retries_total"),
		latency:    reg.Distribution("fleet.pod."+name+".reconcile_seconds", 0.0001, 0.001, 0.01, 0.1, 1, 10),
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	rngSeed := m.opts.Seed ^ h.Sum64()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pods[name] = p
	m.wg.Add(1)
	go m.worker(p, rngSeed)
	return nil
}

// Pods returns the pod names, sorted.
func (m *Manager) Pods() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.pods))
	for n := range m.pods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close stops every worker and closes all subscriptions. Safe to call more
// than once.
func (m *Manager) Close() {
	m.addMu.Lock()
	defer m.addMu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.done)
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	for id, s := range m.subs {
		delete(m.subs, id)
		close(s.ch)
	}
	m.mu.Unlock()
}

func (m *Manager) podLocked(name string) (*pod, error) {
	p, ok := m.pods[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPod, name)
	}
	return p, nil
}

// An intent scope is what a mutation reserves from journal to apply: the
// whole pod (scopePod) or one shard of its keys.
const (
	scopePod    = -1
	scopeShards = 32
)

// sliceScope is the shard of a slice name (FNV-1a, allocation-free).
func sliceScope(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % scopeShards)
}

func (p *pod) reserve(scope int) {
	if scope == scopePod {
		p.scope.Lock()
		return
	}
	p.scope.RLock()
	p.keys[scope].Lock()
}

func (p *pod) release(scope int) {
	if scope == scopePod {
		p.scope.Unlock()
		return
	}
	p.keys[scope].Unlock()
	p.scope.RUnlock()
}

// intake is the one path every intent mutation takes: reserve → journal →
// apply. A mutation that moot says would change nothing ends at the lookup.
// Otherwise e is journaled with its scope reserved and no manager-wide lock
// held, so conflicting mutations are journaled and applied in one order
// while disjoint ones commute and share a group commit; only then is it
// applied under m.mu. A journal error rejects it before anything is applied.
func (m *Manager) intake(podName string, scope int, e JournalEntry, moot func(*pod) bool, apply func(*pod)) error {
	m.mu.Lock()
	p, err := m.podLocked(podName)
	skip := err == nil && moot != nil && moot(p)
	m.mu.Unlock()
	if err != nil || skip {
		return err
	}
	p.reserve(scope)
	defer p.release(scope)
	if err := m.journal(e); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	apply(p)
	m.markDirtyLocked(p)
	return nil
}

func validateIntent(in SliceIntent) error {
	if in.Name == "" {
		return fmt.Errorf("%w: slice needs a name", ErrBadIntent)
	}
	if !in.Shape.Valid() {
		return fmt.Errorf("%w: shape %s is not a multiple-of-%d torus", ErrBadIntent, in.Shape, topo.CubeDim)
	}
	if len(in.Cubes) > 0 {
		if len(in.Cubes) != in.Shape.Cubes() {
			return fmt.Errorf("%w: shape %s needs %d cubes, got %d",
				ErrBadIntent, in.Shape, in.Shape.Cubes(), len(in.Cubes))
		}
		seen := make(map[int]bool, len(in.Cubes))
		for _, c := range in.Cubes {
			if c < 0 || c >= 64 {
				return fmt.Errorf("%w: cube %d out of range", ErrBadIntent, c)
			}
			if seen[c] {
				return fmt.Errorf("%w: duplicate cube %d", ErrBadIntent, c)
			}
			seen[c] = true
		}
	}
	return nil
}

// SetSliceIntent records the desired state of one slice and wakes the pod's
// reconciler. Applying an intent to a quarantined pod is accepted; the pod
// reconciles it after UndrainPod releases the quarantine.
func (m *Manager) SetSliceIntent(podName string, in SliceIntent) error {
	if err := validateIntent(in); err != nil {
		return err
	}
	in.Cubes = append([]int(nil), in.Cubes...)
	e := JournalEntry{Op: OpSetSlice, Pod: podName, Slice: &in}
	return m.intake(podName, sliceScope(in.Name), e, nil, func(p *pod) {
		p.desired[in.Name] = in
		p.pendingReady[in.Name] = true
		delete(p.pendingGone, in.Name)
		m.emitLocked(Event{Pod: podName, Type: EventIntent, Slice: in.Name,
			Detail: fmt.Sprintf("desire %s", in.Shape)})
	})
}

// RemoveSliceIntent drops a slice from the desired state; the reconciler
// destroys it. Removing an unknown slice is a no-op.
func (m *Manager) RemoveSliceIntent(podName, slice string) error {
	e := JournalEntry{Op: OpRemoveSlice, Pod: podName, Name: slice}
	unknown := func(p *pod) bool { _, ok := p.desired[slice]; return !ok }
	return m.intake(podName, sliceScope(slice), e, unknown, func(p *pod) {
		delete(p.desired, slice)
		delete(p.pendingReady, slice)
		p.pendingGone[slice] = true
		m.emitLocked(Event{Pod: podName, Type: EventIntent, Slice: slice, Detail: "remove"})
	})
}

// ReplaceIntent swaps a pod's entire desired slice set.
func (m *Manager) ReplaceIntent(podName string, ins []SliceIntent) error {
	next := make(map[string]SliceIntent, len(ins))
	for _, in := range ins {
		if err := validateIntent(in); err != nil {
			return err
		}
		if _, dup := next[in.Name]; dup {
			return fmt.Errorf("%w: duplicate slice %q", ErrBadIntent, in.Name)
		}
		in.Cubes = append([]int(nil), in.Cubes...)
		next[in.Name] = in
	}
	e := JournalEntry{Op: OpReplace, Pod: podName}
	if m.opts.Journal != nil {
		e.Slices = make([]SliceIntent, 0, len(next))
		for _, in := range next {
			e.Slices = append(e.Slices, in)
		}
		sort.Slice(e.Slices, func(i, j int) bool { return e.Slices[i].Name < e.Slices[j].Name })
	}
	return m.intake(podName, scopePod, e, nil, func(p *pod) {
		for name := range p.desired {
			if _, keep := next[name]; !keep {
				p.pendingGone[name] = true
				delete(p.pendingReady, name)
			}
		}
		for name := range next {
			p.pendingReady[name] = true
			delete(p.pendingGone, name)
		}
		p.desired = next
		m.emitLocked(Event{Pod: podName, Type: EventIntent,
			Detail: fmt.Sprintf("replace with %d slices", len(next))})
	})
}

// DrainPod empties a pod: the reconciler destroys every slice while intents
// are retained for UndrainPod.
func (m *Manager) DrainPod(podName string) error {
	drained := func(p *pod) bool { return p.drained }
	return m.intake(podName, scopePod, JournalEntry{Op: OpDrainPod, Pod: podName}, drained, func(p *pod) {
		p.drained = true
		m.emitLocked(Event{Pod: podName, Type: EventDrained})
	})
}

// UndrainPod returns a pod to service, releasing any quarantine, and
// re-reconciles its retained intents.
func (m *Manager) UndrainPod(podName string) error {
	return m.intake(podName, scopePod, JournalEntry{Op: OpUndrainPod, Pod: podName}, nil, func(p *pod) {
		wasQuarantined := p.quarantined
		p.drained = false
		p.quarantined = false
		p.failures = 0
		p.lastErr = ""
		for name := range p.desired {
			p.pendingReady[name] = true
		}
		if wasQuarantined {
			p.recovering = true
			m.quarantinedPods.Set(float64(m.quarantinedLocked()))
		}
		m.emitLocked(Event{Pod: podName, Type: EventUndrained})
	})
}

// Poke marks a pod dirty without changing its intent — the hook external
// health probes (and internal/chaos's injector) use to demand a fresh
// reconcile pass when a backend is suspected dead. The pass either
// reconverges or starts the retry/quarantine path.
func (m *Manager) Poke(podName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.podLocked(podName)
	if err != nil {
		return err
	}
	m.markDirtyLocked(p)
	return nil
}

// DrainOCS marks one OCS of a pod as under maintenance: the reconciler stops
// composing *new* slices on the pod (they are deferred, not failed) while
// existing slices stay up.
func (m *Manager) DrainOCS(podName string, ocsID int) error {
	return m.setOCSDrain(podName, ocsID, OpDrainOCS, EventDrained)
}

// UndrainOCS ends an OCS maintenance drain.
func (m *Manager) UndrainOCS(podName string, ocsID int) error {
	return m.setOCSDrain(podName, ocsID, OpUndrainOCS, EventUndrained)
}

func (m *Manager) setOCSDrain(podName string, ocsID int, op JournalOp, ev EventType) error {
	if ocsID < 0 || ocsID >= topo.NumOCS {
		return fmt.Errorf("%w: ocs %d out of range [0,%d)", ErrBadIntent, ocsID, topo.NumOCS)
	}
	return m.intake(podName, ocsID%scopeShards, JournalEntry{Op: op, Pod: podName, OCS: ocsID}, nil, func(p *pod) {
		if op == OpDrainOCS {
			p.drainedOCS[ocsID] = true
		} else {
			delete(p.drainedOCS, ocsID)
		}
		m.emitLocked(Event{Pod: podName, Type: ev, Detail: fmt.Sprintf("ocs %d", ocsID)})
	})
}

// markDirtyLocked records pending work and wakes the pod's worker.
func (m *Manager) markDirtyLocked(p *pod) {
	p.gen++
	if !p.dirty {
		p.dirty = true
		p.dirtySince = time.Now()
	}
	m.queueDepth.Set(float64(m.dirtyLocked()))
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

func (m *Manager) dirtyLocked() int {
	n := 0
	for _, p := range m.pods {
		if p.dirty {
			n++
		}
	}
	return n
}

func (m *Manager) quarantinedLocked() int {
	n := 0
	for _, p := range m.pods {
		if p.quarantined {
			n++
		}
	}
	return n
}

// PodStatus is a snapshot of one pod.
type PodStatus struct {
	Name                string
	Drained             bool
	DrainedOCS          []int
	Quarantined         bool
	Converged           bool
	ConsecutiveFailures int
	LastError           string
	DesiredSlices       []string
	ActualSlices        []string
	InstalledCubes      int
	FreeCubes           int
	Circuits            int
}

// Status is a snapshot of the fleet.
type Status struct {
	Pods            []PodStatus
	QueueDepth      int
	QuarantinedPods int
}

// Status snapshots every pod. Backend state is read outside the manager
// lock, so a pod mid-reconcile reports its in-flight actual state.
func (m *Manager) Status() Status {
	m.mu.Lock()
	st := Status{
		QueueDepth:      m.dirtyLocked(),
		QuarantinedPods: m.quarantinedLocked(),
	}
	type podRef struct {
		ps PodStatus
		b  Backend
	}
	refs := make([]podRef, 0, len(m.pods))
	for _, p := range m.pods {
		ps := PodStatus{
			Name:                p.name,
			Drained:             p.drained,
			Quarantined:         p.quarantined,
			Converged:           !p.dirty && !p.quarantined,
			ConsecutiveFailures: p.failures,
			LastError:           p.lastErr,
		}
		for o := range p.drainedOCS {
			ps.DrainedOCS = append(ps.DrainedOCS, o)
		}
		sort.Ints(ps.DrainedOCS)
		for name := range p.desired {
			ps.DesiredSlices = append(ps.DesiredSlices, name)
		}
		sort.Strings(ps.DesiredSlices)
		refs = append(refs, podRef{ps, p.backend})
	}
	m.mu.Unlock()

	sort.Slice(refs, func(i, j int) bool { return refs[i].ps.Name < refs[j].ps.Name })
	for i := range refs {
		info := refs[i].b.Info()
		refs[i].ps.ActualSlices = info.Slices
		refs[i].ps.InstalledCubes = info.InstalledCubes
		refs[i].ps.FreeCubes = info.FreeCubes
		refs[i].ps.Circuits = info.Circuits
		st.Pods = append(st.Pods, refs[i].ps)
	}
	return st
}

// Pod returns the named pod's status, or the zero status and false when
// the snapshot has no such pod.
func (st Status) Pod(name string) (PodStatus, bool) {
	for _, ps := range st.Pods {
		if ps.Name == name {
			return ps, true
		}
	}
	return PodStatus{}, false
}

// Settled holds when every pod is either converged or quarantined — the
// reconciler's only two stable states (a quarantined pod stays dirty by
// design until an operator undrains it).
func (st Status) Settled() bool {
	for _, p := range st.Pods {
		if !p.Converged && !p.Quarantined {
			return false
		}
	}
	return true
}

// PodStatus snapshots one pod.
func (m *Manager) PodStatus(podName string) (PodStatus, error) {
	ps, ok := m.Status().Pod(podName)
	if !ok {
		return ps, fmt.Errorf("%w: %q", ErrNoPod, podName)
	}
	return ps, nil
}

// WaitStatus polls Status until pred holds, for at most timeout — how
// evaluators that replay a virtual-time stream wait out the real-time
// reconcile workers between events. The predicate they wait for is a
// deterministic post-state; only the wait is wall-clock. The error names
// what was awaited.
func (m *Manager) WaitStatus(timeout time.Duration, what string, pred func(Status) bool) error {
	deadline := time.Now().Add(timeout)
	for !pred(m.Status()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
