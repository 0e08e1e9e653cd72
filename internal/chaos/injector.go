package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lightwave/internal/dcn"
	"lightwave/internal/fec"
	"lightwave/internal/fleet"
	"lightwave/internal/telemetry"
)

// Targets names the control-plane seams the injector actuates through.
// Every fault travels a path the real system has: pod losses surface as
// backend errors to the fleet reconciler, OCS outages go through the
// fleet drain workflow before the switch dies, trunk impairments are
// admin-down bookkeeping that the evaluator feeds back into the te
// collector. Nothing writes around the control plane.
type Targets struct {
	// Fleet is the reconciler faults are steered through; required.
	Fleet *fleet.Manager
	// Backends maps compute-pod names to their injectable backends
	// (pod-loss / pod-restore targets).
	Backends map[string]*FaultyBackend
	// Fabric is the DCN OCS fabric for outage/restore faults; optional —
	// without it OCS outages are rejected.
	Fabric *dcn.Fabric
	// FabricPod is Fleet's pod name fronting the Fabric: OCS outages
	// drain it first, so the control plane sees the failure coming the
	// way a maintenance system would.
	FabricPod string
	// Detector receives BER samples from ber-degrade faults; optional.
	Detector *telemetry.Detector
}

// Injector applies scenario events to live targets. All methods are safe
// for concurrent use; the internal lock is always taken before any
// fleet.Manager or dcn.Fabric call (lock order: Injector.mu → Manager.mu
// → Fabric.mu), and neither calls back in, so injection cannot deadlock
// the reconciler or a TE stage programming the same fabric.
type Injector struct {
	mu sync.Mutex
	t  Targets

	// timers tracks pending ApplyLive lift timers so Close can stop them
	// before the daemon tears down the targets underneath; lifts holds
	// in-flight lift callbacks Close must wait out.
	timers map[*time.Timer]struct{}
	lifts  sync.WaitGroup
	closed bool

	// adminDown counts admin-removed trunks per block pair (a flap and a
	// BER drain on the same pair stack).
	adminDown map[[2]int]int
	downTotal int
	// downSwitches tracks injected OCS outages; needHeal is set whenever
	// the fabric changed under the live topology and a Program pass is
	// owed.
	downSwitches map[int]bool
	needHeal     bool

	active    int
	injected  int
	lastFault string

	// Hot-path metrics are resolved once at construction so the trunk
	// bookkeeping (trunkDownLocked / trunkUpLocked) stays allocation-free.
	cInjected   *telemetry.Counter
	cTrunkDown  *telemetry.Counter
	cBERDrains  *telemetry.Counter
	cOCSOutages *telemetry.Counter
	cPodLosses  *telemetry.Counter
	cDrains     *telemetry.Counter
	gActive     *telemetry.Gauge
	gTrunksDown *telemetry.Gauge
}

// NewInjector builds an injector over the targets.
func NewInjector(t Targets) (*Injector, error) {
	if t.Fleet == nil {
		return nil, fmt.Errorf("%w: injector needs a fleet manager", ErrTarget)
	}
	if t.Fabric != nil && t.FabricPod == "" {
		return nil, fmt.Errorf("%w: a fabric target needs its fleet pod name", ErrTarget)
	}
	reg := Registry()
	return &Injector{
		t:            t,
		adminDown:    make(map[[2]int]int),
		downSwitches: make(map[int]bool),
		timers:       make(map[*time.Timer]struct{}),
		cInjected:    reg.Counter("chaos_injected_total"),
		cTrunkDown:   reg.Counter("chaos_trunk_faults_total"),
		cBERDrains:   reg.Counter("chaos_ber_drains_total"),
		cOCSOutages:  reg.Counter("chaos_ocs_outages_total"),
		cPodLosses:   reg.Counter("chaos_pod_losses_total"),
		cDrains:      reg.Counter("chaos_drains_total"),
		gActive:      reg.Gauge("chaos_active_faults"),
		gTrunksDown:  reg.Gauge("chaos_trunks_admin_down"),
	}, nil
}

// Apply injects one event's onset.
func (in *Injector) Apply(ev Event) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.applyLocked(ev); err != nil {
		return err
	}
	in.noteLocked(ev)
	return nil
}

// Lift reverses a bounded transient previously applied with Apply. It is
// the evaluator's (and ApplyLive's timer's) counterpart to the onset;
// kinds without a lift are no-ops.
func (in *Injector) Lift(ev Event) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.liftLocked(ev)
}

// ApplyLive refuses an event Scenario.Validate would refuse; otherwise it
// injects the event now and, for bounded transients, schedules the lift on
// a wall-clock timer DurationSeconds later — the mode the daemons'
// chaos-inject RPC uses — and returns the event as applied. After Close
// the fault is still applied but no lift is scheduled: the daemon is
// tearing down anyway.
func (in *Injector) ApplyLive(ev Event) (string, error) {
	if err := ev.check(); err != nil {
		return "", fmt.Errorf("%w: %v", ErrScenario, err)
	}
	if err := in.Apply(ev); err != nil {
		return "", err
	}
	if !ev.needsDuration() {
		return ev.String(), nil
	}
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return ev.String(), nil
	}
	in.lifts.Add(1)
	var tm *time.Timer
	//lwlint:ignore walltime ApplyLive is the live-daemon seam: lift timers run on wall clock by design; deterministic replay uses Apply/Lift driven by virtual time
	tm = time.AfterFunc(time.Duration(ev.DurationSeconds*float64(time.Second)), func() {
		defer in.lifts.Done()
		in.mu.Lock()
		closed := in.closed
		delete(in.timers, tm)
		in.mu.Unlock()
		if closed {
			return
		}
		in.Lift(ev) //nolint:errcheck // a failed lift leaves the fault armed; status shows it
	})
	in.timers[tm] = struct{}{}
	in.mu.Unlock()
	return ev.String(), nil
}

// Close stops pending lift timers and waits for in-flight lifts, after
// which the injector no longer touches its targets — call it before
// tearing down the fleet manager or fabric it actuates. Idempotent.
func (in *Injector) Close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	//lwlint:ignore maprange teardown of a timer set: each Stop/Done/delete is independent, so stop order cannot reach results
	for tm := range in.timers {
		if tm.Stop() {
			// The callback will never run; settle its WaitGroup slot.
			in.lifts.Done()
		}
		delete(in.timers, tm)
	}
	in.mu.Unlock()
	in.lifts.Wait()
}

func (in *Injector) applyLocked(ev Event) error {
	switch ev.Kind {
	case KindOCSOutage:
		return in.ocsOutageLocked(ev.OCS)
	case KindOCSRestore:
		return in.ocsRestoreLocked(ev.OCS)
	case KindCircuitFlap:
		in.trunkDownLocked(ev.Trunk)
		return nil
	case KindBERDegrade:
		return in.berDegradeLocked(ev)
	case KindPodLoss:
		return in.podLossLocked(ev.Pod)
	case KindPodRestore:
		return in.podRestoreLocked(ev.Pod)
	case KindStuckDrain, KindSlowDrain:
		if err := in.t.Fleet.DrainOCS(ev.Pod, ev.OCS); err != nil {
			return err
		}
		in.cDrains.Inc()
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrScenario, ev.Kind)
	}
}

func (in *Injector) liftLocked(ev Event) error {
	switch ev.Kind {
	case KindCircuitFlap:
		in.trunkUpLocked(ev.Trunk)
		return nil
	case KindBERDegrade:
		if ev.BER >= fec.KP4Threshold {
			in.trunkUpLocked(ev.Trunk)
		}
		return nil
	case KindSlowDrain:
		return in.t.Fleet.UndrainOCS(ev.Pod, ev.OCS)
	default:
		return nil
	}
}

// ocsOutageLocked kills a fabric switch the operational way: drain its
// fleet representation first (so the control plane knows capacity is
// going away), then fail both PSUs. The owed Program pass is deferred to
// the next Heal call — in the evaluator that is the next reconcile epoch,
// matching the paper's observe→react cadence.
func (in *Injector) ocsOutageLocked(idx int) error {
	if in.t.Fabric == nil {
		return fmt.Errorf("%w: no fabric target for %s", ErrTarget, KindOCSOutage)
	}
	if in.downSwitches[idx] {
		return nil
	}
	if err := in.t.Fleet.DrainOCS(in.t.FabricPod, idx); err != nil {
		return err
	}
	if _, err := in.t.Fabric.FailSwitch(idx); err != nil {
		return err
	}
	in.downSwitches[idx] = true
	in.needHeal = true
	in.active++
	in.cOCSOutages.Inc()
	in.gActive.Set(float64(in.active))
	return nil
}

func (in *Injector) ocsRestoreLocked(idx int) error {
	if in.t.Fabric == nil {
		return fmt.Errorf("%w: no fabric target for %s", ErrTarget, KindOCSRestore)
	}
	if !in.downSwitches[idx] {
		return nil
	}
	if err := in.t.Fabric.RepairSwitch(idx); err != nil {
		return err
	}
	if err := in.t.Fleet.UndrainOCS(in.t.FabricPod, idx); err != nil {
		return err
	}
	delete(in.downSwitches, idx)
	in.needHeal = true
	in.active--
	in.gActive.Set(float64(in.active))
	return nil
}

func (in *Injector) podLossLocked(pod string) error {
	b, ok := in.t.Backends[pod]
	if !ok {
		return fmt.Errorf("%w: pod %q has no injectable backend", ErrTarget, pod)
	}
	b.Fail(nil)
	in.active++
	in.cPodLosses.Inc()
	in.gActive.Set(float64(in.active))
	// Poke forces a reconcile pass so the loss is discovered now, not at
	// the next intent change — the reconciler then walks its ordinary
	// retry → quarantine path.
	return in.t.Fleet.Poke(pod)
}

func (in *Injector) podRestoreLocked(pod string) error {
	b, ok := in.t.Backends[pod]
	if !ok {
		return fmt.Errorf("%w: pod %q has no injectable backend", ErrTarget, pod)
	}
	if !b.Failed() {
		return nil
	}
	b.Heal()
	in.active--
	in.gActive.Set(float64(in.active))
	// UndrainPod releases the quarantine (if the retry budget ran out)
	// and re-reconciles retained intents either way.
	return in.t.Fleet.UndrainPod(pod)
}

// berDegradeLocked feeds the degraded sample to the telemetry detector —
// the same path production BER counters take — and admin-drains the
// trunk when the sample is at or beyond the KP4 FEC limit, mirroring the
// paper's link-SLO drain policy.
func (in *Injector) berDegradeLocked(ev Event) error {
	if in.t.Detector != nil {
		in.t.Detector.Observe(ev.BER)
	}
	if ev.BER >= fec.KP4Threshold {
		in.cBERDrains.Inc()
		in.trunkDownLocked(ev.Trunk)
	}
	return nil
}

//lwlint:hotpath
func (in *Injector) trunkDownLocked(pair [2]int) {
	in.adminDown[normPair(pair)]++
	in.downTotal++
	in.active++
	in.cTrunkDown.Inc()
	in.gActive.Set(float64(in.active))
	in.gTrunksDown.Set(float64(in.downTotal))
}

//lwlint:hotpath
func (in *Injector) trunkUpLocked(pair [2]int) {
	k := normPair(pair)
	if in.adminDown[k] == 0 {
		return
	}
	in.adminDown[k]--
	in.downTotal--
	in.active--
	in.gActive.Set(float64(in.active))
	in.gTrunksDown.Set(float64(in.downTotal))
}

//lwlint:hotpath
func normPair(p [2]int) [2]int {
	if p[0] > p[1] {
		p[0], p[1] = p[1], p[0]
	}
	return p
}

// noteLocked records bookkeeping common to every successful injection.
func (in *Injector) noteLocked(ev Event) {
	in.injected++
	in.lastFault = ev.String()
	in.cInjected.Inc()
}

// Heal gives the fabric its owed repair pass: if any OCS outage or
// restore changed the hardware since the last call, re-program the
// intended topology, which colors over the switches still up. When the
// survivors cannot host the full topology the pass stays owed and is
// retried at the next call — capacity remains degraded until hardware
// comes back, exactly the operational behavior. The evaluator calls this
// once per reconcile epoch; daemons call it from their control loop.
func (in *Injector) Heal(intended *dcn.Topology) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.needHeal || in.t.Fabric == nil {
		return nil
	}
	if _, err := in.t.Fabric.Program(intended); err != nil {
		return tolerateShortfall(err)
	}
	in.needHeal = false
	return nil
}

// tolerateShortfall is the chaos rule for a fabric that cannot follow a
// topology: the surviving switches are too few, dcn.Fabric.Program left
// the hardware as it was, and the shortfall is degraded capacity — a
// scenario outcome, not a replay error. Other errors pass through.
func tolerateShortfall(err error) error {
	if errors.Is(err, dcn.ErrTooFewSwitches) {
		return nil
	}
	return err
}

// Degraded returns the topology actually carrying traffic: the fabric's
// live trunks (post-outage, post-heal) minus admin-downed trunks. With
// no fabric target it is the intended topology minus admin-down.
func (in *Injector) Degraded(intended *dcn.Topology) *dcn.Topology {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := &dcn.Topology{
		Blocks:          intended.Blocks,
		UplinksPerBlock: intended.UplinksPerBlock,
		Links:           make([][]int, intended.Blocks),
	}
	var live [][]int
	if in.t.Fabric != nil {
		live = in.t.Fabric.LiveTrunks()
	}
	for i := 0; i < intended.Blocks; i++ {
		out.Links[i] = make([]int, intended.Blocks)
		for j := 0; j < intended.Blocks; j++ {
			n := intended.Links[i][j]
			if live != nil && i < len(live) && j < len(live[i]) {
				n = live[i][j]
			}
			if i < j {
				n -= in.adminDown[[2]int{i, j}]
			} else if j < i {
				n -= in.adminDown[[2]int{j, i}]
			}
			if n < 0 {
				n = 0
			}
			out.Links[i][j] = n
		}
	}
	return out
}

// PerturbObserved derates an offered-rate matrix by the live/intended
// capacity fraction per block pair — the te collector's input seam.
// Sources behind a degraded pair back off to what the pair can carry, so
// the collector observes the fault the way production telemetry would:
// as a traffic shift, not a magic capacity signal.
func (in *Injector) PerturbObserved(bps [][]float64, intended, degraded *dcn.Topology) {
	for i := range bps {
		for j := range bps[i] {
			if i == j || i >= intended.Blocks || j >= intended.Blocks {
				continue
			}
			want := intended.Links[i][j]
			have := degraded.Links[i][j]
			if want > 0 && have < want {
				bps[i][j] *= float64(have) / float64(want)
			}
		}
	}
}

// InjectorStatus snapshots an injector, and is the chaos-status wire form.
type InjectorStatus struct {
	InjectedTotal int    `json:"injectedTotal"`
	ActiveFaults  int    `json:"activeFaults"`
	TrunksDown    int    `json:"trunksDown"`
	DownSwitches  int    `json:"downSwitches"`
	LastFault     string `json:"lastFault,omitempty"`
}

// Status snapshots the injector.
func (in *Injector) Status() InjectorStatus {
	in.mu.Lock()
	defer in.mu.Unlock()
	return InjectorStatus{
		InjectedTotal: in.injected,
		ActiveFaults:  in.active,
		TrunksDown:    in.downTotal,
		DownSwitches:  len(in.downSwitches),
		LastFault:     in.lastFault,
	}
}
