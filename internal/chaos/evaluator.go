package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"lightwave/internal/dcn"
	"lightwave/internal/fleet"
	"lightwave/internal/ocs"
	"lightwave/internal/par"
	"lightwave/internal/sim"
	"lightwave/internal/te"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// EvalConfig parameterizes a scenario replay against a full control
// plane: a fleet.Manager with injectable compute pods and a DCN fabric
// pod, a te.Loop reconfiguring that fabric through the fleet drain
// workflow, and the flow simulator measuring goodput on the degraded
// topology each epoch.
type EvalConfig struct {
	Scenario Scenario
	// Blocks/Uplinks size the DCN; NumOCS is the fabric's switch count
	// (default Uplinks+4: a block's degree can reach Uplinks and edge
	// coloring may need degree+1 switches, so the default rides out one
	// outage with enough slack to re-place every lost trunk).
	Blocks, Uplinks, NumOCS int
	// Pods are the injectable compute pods (default pod0..pod3), each
	// carrying one slice so backend faults have intent to fail against.
	Pods []string
	// TrunkBps is the per-trunk per-direction rate (default 50e9).
	TrunkBps float64
	// EpochSeconds is the virtual reconcile/te epoch (default 60).
	EpochSeconds float64
	// LoadFraction scales the synthetic trace so its peak epoch offers
	// this fraction of fabric capacity (default 0.6).
	LoadFraction float64
	// SimSeconds and MeanFlowBytes parameterize the per-epoch flow
	// simulation (defaults 2 and 1e9).
	SimSeconds    float64
	MeanFlowBytes float64
	// RecoveredFraction is the goodput fraction at or above which a
	// capacity fault counts as recovered (default 0.99).
	RecoveredFraction float64
	// QuarantineAfter is the reconciler's retry budget (default 3).
	QuarantineAfter int
	// SettleTimeout bounds each real-time wait for the reconciler to
	// reach a fault's deterministic post-state (default 10s; generous —
	// reconcile backoffs are milliseconds).
	SettleTimeout time.Duration
	Seed          uint64
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Blocks == 0 {
		c.Blocks = 8
	}
	if c.Uplinks == 0 {
		c.Uplinks = c.Blocks
	}
	if c.NumOCS == 0 {
		c.NumOCS = c.Uplinks + 4
	}
	if len(c.Pods) == 0 {
		c.Pods = []string{"pod0", "pod1", "pod2", "pod3"}
	}
	if c.TrunkBps <= 0 {
		c.TrunkBps = 50e9
	}
	if c.EpochSeconds <= 0 {
		c.EpochSeconds = 60
	}
	if c.LoadFraction <= 0 {
		c.LoadFraction = 0.6
	}
	if c.SimSeconds <= 0 {
		c.SimSeconds = 2
	}
	if c.MeanFlowBytes <= 0 {
		c.MeanFlowBytes = 1e9
	}
	if c.RecoveredFraction <= 0 {
		c.RecoveredFraction = 0.99
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 10 * time.Second
	}
	return c
}

// FabricPodName is the fleet pod fronting the DCN fabric in evaluator
// replays.
const FabricPodName = "dcn"

// PodOutcome summarizes one compute pod's ride through the scenario.
type PodOutcome struct {
	Pod             string
	ReconcileErrors int
	Quarantines     int
	Recoveries      int
	Converged       int
	// BudgetRespected is false if any quarantine fired before (or after)
	// exactly QuarantineAfter consecutive reconcile errors.
	BudgetRespected bool
	// MTTRSeconds is the virtual loss→restore time of the pod's backend
	// fault (-1 when the scenario never restores it).
	MTTRSeconds float64
}

// Report is the evaluator's outcome. Text renders it in a fixed format,
// so two replays agree exactly iff their reports are byte-identical.
type Report struct {
	Scenario string
	Epochs   int
	// EventsApplied counts scenario actions (onsets and lifts) injected.
	EventsApplied int
	Pods          []PodOutcome
	// GoodputFraction[e] is epoch e's degraded/intended delivered
	// throughput; MinGoodputFraction is its minimum.
	GoodputFraction    []float64
	MinGoodputFraction float64
	// BlackoutEpochs counts epochs whose degraded topology could not
	// carry the demand at all (a demanded pair with no path).
	BlackoutEpochs int
	// CapacityMTTRSeconds is the virtual time from the first epoch whose
	// goodput fraction dropped below RecoveredFraction to the first
	// subsequent epoch at or above it (-1 if it never recovered, 0 if it
	// never dropped).
	CapacityMTTRSeconds float64
	// TEReconfigs and TEEpochs snapshot the te loop after the replay.
	TEReconfigs, TEEpochs int
	// QuarantineBudgetOK aggregates BudgetRespected over pods.
	QuarantineBudgetOK bool
}

// Text renders the report deterministically.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos report: scenario=%s epochs=%d events=%d\n", r.Scenario, r.Epochs, r.EventsApplied)
	fmt.Fprintf(&b, "goodput: min_fraction=%.6f blackout_epochs=%d capacity_mttr_s=%.3f\n",
		r.MinGoodputFraction, r.BlackoutEpochs, r.CapacityMTTRSeconds)
	fmt.Fprintf(&b, "te: reconfigs=%d epochs=%d\n", r.TEReconfigs, r.TEEpochs)
	fmt.Fprintf(&b, "quarantine_budget_ok=%t\n", r.QuarantineBudgetOK)
	for _, p := range r.Pods {
		fmt.Fprintf(&b, "pod %s: errors=%d quarantines=%d recoveries=%d converged=%d budget_ok=%t mttr_s=%.3f\n",
			p.Pod, p.ReconcileErrors, p.Quarantines, p.Recoveries, p.Converged, p.BudgetRespected, p.MTTRSeconds)
	}
	for e, g := range r.GoodputFraction {
		fmt.Fprintf(&b, "epoch %d: goodput_fraction=%.6f\n", e, g)
	}
	return b.String()
}

// Evaluate replays the scenario end-to-end. Phase A is sequential: build
// the control plane, converge it, then walk epochs — heal the fabric,
// inject the epoch's faults (waiting for the reconciler to reach each
// fault's deterministic post-state), snapshot the degraded topology, and
// feed the te loop a capacity-derated observation. Phase B fans the
// 2×Epochs flow simulations (intended and degraded topology per epoch)
// out on the worker pool with per-epoch substreams, so the whole replay
// is bit-identical at any par worker count.
func Evaluate(cfg EvalConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	epochs := int(cfg.Scenario.HorizonSeconds / cfg.EpochSeconds)
	if float64(epochs)*cfg.EpochSeconds < cfg.Scenario.HorizonSeconds {
		epochs++
	}

	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if err := h.converge(); err != nil {
		return nil, err
	}

	// Subscribe only after setup convergence: boot-time event counts
	// depend on reconcile interleaving, fault-driven ones do not.
	sub := h.mgr.Subscribe(4096)
	defer sub.Close()

	acts := cfg.Scenario.actions()
	ai := 0
	applied := 0
	demand := make([][][]float64, epochs)
	degraded := make([]*dcn.Topology, epochs)
	intended := make([]*dcn.Topology, epochs)
	for e := 0; e < epochs; e++ {
		// The fabric's owed repair pass lands at the epoch boundary —
		// the control plane reacts on its reconcile cadence, not
		// instantly.
		if err := h.inj.Heal(h.loop.Current()); err != nil {
			return nil, fmt.Errorf("chaos: heal before epoch %d: %w", e, err)
		}
		hi := float64(e+1) * cfg.EpochSeconds
		for ai < len(acts) && acts[ai].at < hi {
			if err := h.applyAction(acts[ai]); err != nil {
				return nil, fmt.Errorf("chaos: %s at %gs: %w", acts[ai].ev.Kind, acts[ai].at, err)
			}
			applied++
			ai++
		}
		intended[e] = h.loop.Current()
		degraded[e] = h.inj.Degraded(intended[e])
		m, err := h.trace.Epoch(e)
		if err != nil {
			return nil, err
		}
		scaleDemand(m, h.scale)
		demand[e] = m
		// The te collector sees the fault as backed-off traffic on the
		// degraded pairs — production telemetry's view.
		obs := cloneMatrix(m)
		h.inj.PerturbObserved(obs, intended[e], degraded[e])
		if err := h.loop.ObserveRates(obs); err != nil {
			return nil, err
		}
		if _, err := h.loop.Step(); err != nil {
			return nil, fmt.Errorf("chaos: te step at epoch %d: %w", e, err)
		}
	}

	// Phase B: goodput under failure. Job e simulates epoch e%epochs on
	// the intended (e<epochs) or degraded (e>=epochs) topology; both
	// share the epoch's arrival substream so only the topology differs.
	type simOut struct {
		bps      float64
		blackout bool
		err      error
	}
	jobs := make([]int, 2*epochs)
	for i := range jobs {
		jobs[i] = i
	}
	outs := par.Sweep("chaos_eval_sim", jobs, func(_ int, i int) simOut {
		e := i % epochs
		top := intended[e]
		if i >= epochs {
			top = degraded[e]
		}
		w := dcn.Workload{Demand: demand[e], MeanFlowBytes: cfg.MeanFlowBytes, Duration: cfg.SimSeconds}
		sc := dcn.SimConfig{TrunkBps: cfg.TrunkBps, Seed: sim.SubstreamSeed(cfg.Seed, uint64(e)), MaxTransit: 4}
		r, err := dcn.Simulate(top, w, sc)
		if errors.Is(err, dcn.ErrDegenerate) {
			// A demanded pair with no surviving path: the epoch is a
			// blackout, not an evaluator error.
			return simOut{blackout: true}
		}
		return simOut{bps: r.ThroughputBps, err: err}
	})

	rep := &Report{
		Scenario:           cfg.Scenario.Name,
		Epochs:             epochs,
		EventsApplied:      applied,
		GoodputFraction:    make([]float64, epochs),
		MinGoodputFraction: 1,
	}
	for e := 0; e < epochs; e++ {
		in, dg := outs[e], outs[epochs+e]
		if in.err != nil {
			return nil, fmt.Errorf("chaos: intended sim epoch %d: %w", e, in.err)
		}
		if dg.err != nil {
			return nil, fmt.Errorf("chaos: degraded sim epoch %d: %w", e, dg.err)
		}
		frac := 1.0
		switch {
		case dg.blackout || in.blackout:
			frac = 0
			rep.BlackoutEpochs++
		case in.bps > 0 && dg.bps < in.bps:
			frac = dg.bps / in.bps
		}
		rep.GoodputFraction[e] = frac
		if frac < rep.MinGoodputFraction {
			rep.MinGoodputFraction = frac
		}
	}
	rep.CapacityMTTRSeconds = capacityMTTR(rep.GoodputFraction, cfg.RecoveredFraction, cfg.EpochSeconds)

	rep.Pods = podOutcomes(cfg, drain(sub))
	rep.QuarantineBudgetOK = true
	for _, p := range rep.Pods {
		rep.QuarantineBudgetOK = rep.QuarantineBudgetOK && p.BudgetRespected
	}
	st := h.loop.Status()
	rep.TEReconfigs, rep.TEEpochs = st.Reconfigs, st.Epoch
	return rep, nil
}

// harness is the live control plane a scenario replays against.
type harness struct {
	cfg      EvalConfig
	mgr      *fleet.Manager
	loop     *te.Loop
	fabric   *dcn.Fabric
	inj      *Injector
	backends map[string]*FaultyBackend
	trace    te.TraceConfig
	scale    float64
}

func newHarness(cfg EvalConfig) (*harness, error) {
	ocsCfg := ocs.DefaultConfig()
	ocsCfg.Seed = sim.SubstreamSeed(cfg.Seed, 2000)
	fabric, err := dcn.NewFabric(cfg.Blocks, cfg.NumOCS, ocsCfg)
	if err != nil {
		return nil, err
	}
	mgr := fleet.NewManager(fleet.Options{
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		QuarantineAfter: cfg.QuarantineAfter,
		Seed:            cfg.Seed,
	})
	h := &harness{cfg: cfg, mgr: mgr, fabric: fabric, backends: make(map[string]*FaultyBackend)}

	for _, name := range cfg.Pods {
		b := NewFaultyBackend(NewMemoryBackend())
		h.backends[name] = b
		if err := mgr.AddPod(name, b); err != nil {
			h.close()
			return nil, err
		}
		// One slice per pod: backend faults need standing intent to fail
		// against, or the reconciler has nothing to reconcile.
		if err := mgr.SetSliceIntent(name, fleet.SliceIntent{
			Name: "job-" + name, Shape: topo.Shape{X: 4, Y: 4, Z: 4},
		}); err != nil {
			h.close()
			return nil, err
		}
	}

	// BER samples ride the production telemetry path: a detector with the
	// KP4 FEC ceiling as its hard limit.
	det := telemetry.NewDetector("chaos-ber", nil)
	det.HardLimit = KP4BERLimit
	h.inj, err = NewInjector(Targets{
		Fleet:     mgr,
		Backends:  h.backends,
		Fabric:    fabric,
		FabricPod: FabricPodName,
		Detector:  det,
	})
	if err != nil {
		h.close()
		return nil, err
	}
	// te reconfigurations take the fleet drain workflow like any DCN pod's,
	// programming through the injector so they use only the switches the
	// scenario has left healthy.
	applier, err := te.NewFleetApplierOver(mgr, FabricPodName, h.inj)
	if err != nil {
		h.close()
		return nil, err
	}

	h.loop, err = te.NewLoop(te.Config{
		Blocks: cfg.Blocks, Uplinks: cfg.Uplinks, TrunkBps: cfg.TrunkBps,
		EpochSeconds: cfg.EpochSeconds,
		Applier:      applier,
	})
	if err != nil {
		h.close()
		return nil, err
	}
	if _, err := fabric.Program(h.loop.Current()); err != nil {
		h.close()
		return nil, err
	}

	h.trace = te.TraceConfig{
		Blocks: cfg.Blocks, Epochs: 1 << 20, BaseBps: 1,
		NumServices: 3 * cfg.Blocks, ServiceMeanBps: 10,
		ServiceMinEpochs: 16, Seed: sim.SubstreamSeed(cfg.Seed, 1000),
	}
	// Normalize like te.Evaluate: peak of the first horizon's epochs
	// offers LoadFraction of fabric capacity.
	epochs := int(cfg.Scenario.HorizonSeconds/cfg.EpochSeconds) + 1
	peak := 0.0
	for e := 0; e < epochs; e++ {
		m, err := h.trace.Epoch(e)
		if err != nil {
			h.close()
			return nil, err
		}
		if t := dcn.TotalDemand(m); t > peak {
			peak = t
		}
	}
	if peak <= 0 {
		h.close()
		return nil, fmt.Errorf("%w: trace offers no demand", ErrConfig)
	}
	h.scale = cfg.LoadFraction * float64(cfg.Blocks*cfg.Uplinks) * cfg.TrunkBps / peak
	return h, nil
}

func (h *harness) close() {
	if h.mgr != nil {
		h.mgr.Close()
	}
}

// converge waits for every pod's initial reconcile.
func (h *harness) converge() error {
	return h.settle(allConverged, "initial convergence")
}

// allConverged holds when every pod has realized its intent and nothing is
// queued — stricter than Status.Settled, which also accepts quarantine.
func allConverged(st fleet.Status) bool {
	for _, p := range st.Pods {
		if !p.Converged {
			return false
		}
	}
	return st.QueueDepth == 0
}

// settle waits until fleet status satisfies pred — the evaluator's bridge
// between the reconciler's real-time workers and the replay's virtual
// clock. Each fault kind settles on a deterministic post-state, so event
// counts never race the epoch walk.
func (h *harness) settle(pred func(fleet.Status) bool, what string) error {
	if err := h.mgr.WaitStatus(h.cfg.SettleTimeout, what, pred); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}

// applyAction injects one primitive and waits for its deterministic
// post-state.
func (h *harness) applyAction(a action) error {
	ev := a.ev
	if a.lift {
		if err := h.inj.Lift(ev); err != nil {
			return err
		}
		if ev.Kind == KindSlowDrain {
			return h.settle(fleet.Status.Settled, "slow-drain lift")
		}
		return nil
	}
	if err := h.inj.Apply(ev); err != nil {
		return err
	}
	switch ev.Kind {
	case KindPodLoss:
		// The reconciler burns its retry budget and quarantines; waiting
		// for the quarantine pins the error-event count.
		return h.settle(func(st fleet.Status) bool {
			p, _ := st.Pod(ev.Pod)
			return p.Quarantined
		}, "quarantine of "+ev.Pod)
	case KindPodRestore:
		return h.settle(func(st fleet.Status) bool {
			p, _ := st.Pod(ev.Pod)
			return !p.Quarantined && p.Converged
		}, "recovery of "+ev.Pod)
	case KindOCSOutage, KindOCSRestore, KindStuckDrain, KindSlowDrain:
		return h.settle(fleet.Status.Settled, string(ev.Kind)+" settle")
	default:
		return nil
	}
}

// drain collects everything the subscription buffered. The epoch walk
// settle-waited on every fault's post-state, so the feed is complete by
// the time the walk ends.
func drain(sub *fleet.Subscription) []fleet.Event {
	var evs []fleet.Event
	for {
		select {
		case ev := <-sub.Events():
			evs = append(evs, ev)
		default:
			return evs
		}
	}
}

// podOutcomes folds the event stream into per-pod outcomes, checking the
// quarantine budget: every quarantine must be preceded by exactly
// QuarantineAfter consecutive reconcile errors.
func podOutcomes(cfg EvalConfig, evs []fleet.Event) []PodOutcome {
	pods := append([]string(nil), cfg.Pods...)
	sort.Strings(pods)
	outs := make([]PodOutcome, 0, len(pods))
	for _, name := range pods {
		o := PodOutcome{Pod: name, BudgetRespected: true, MTTRSeconds: podMTTR(cfg.Scenario, name)}
		streak := 0
		for _, ev := range evs {
			if ev.Pod != name {
				continue
			}
			switch ev.Type {
			case fleet.EventReconcileError:
				o.ReconcileErrors++
				streak++
			case fleet.EventQuarantined:
				o.Quarantines++
				if streak != cfg.QuarantineAfter {
					o.BudgetRespected = false
				}
				streak = 0
			case fleet.EventRecovered:
				o.Recoveries++
				streak = 0
			case fleet.EventConverged:
				o.Converged++
				streak = 0
			}
		}
		outs = append(outs, o)
	}
	return outs
}

// podMTTR is the virtual loss→restore interval for a pod's backend
// fault: -1 when lost and never restored, 0 when never lost.
func podMTTR(s Scenario, pod string) float64 {
	loss := -1.0
	for _, ev := range s.Events {
		if ev.Pod != pod {
			continue
		}
		switch ev.Kind {
		case KindPodLoss:
			if loss < 0 {
				loss = ev.At
			}
		case KindPodRestore:
			if loss >= 0 {
				return ev.At - loss
			}
		}
	}
	if loss >= 0 {
		return -1
	}
	return 0
}

// capacityMTTR reads the goodput-fraction series: virtual time from the
// first epoch below the recovered threshold to the first subsequent
// epoch at or above it. 0 = never dropped; -1 = never recovered.
func capacityMTTR(fracs []float64, threshold, epochSeconds float64) float64 {
	first := -1
	for e, f := range fracs {
		if f < threshold {
			if first < 0 {
				first = e
			}
		} else if first >= 0 {
			return float64(e-first) * epochSeconds
		}
	}
	if first >= 0 {
		return -1
	}
	return 0
}

func scaleDemand(m [][]float64, scale float64) {
	for i := range m {
		for j := range m[i] {
			m[i][j] *= scale
		}
	}
}

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}
