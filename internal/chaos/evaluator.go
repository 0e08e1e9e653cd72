package chaos

import (
	"errors"
	"fmt"
	"strings"

	"lightwave/internal/dcn"
	"lightwave/internal/fec"
	"lightwave/internal/fleet"
	"lightwave/internal/ocs"
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
	// Blocks/Uplinks size the DCN (defaults 8 and Blocks). The fabric has
	// Uplinks+4 switches: a block's degree can reach Uplinks and edge
	// coloring may need degree+1, so it rides out one outage with enough
	// slack to re-place every lost trunk.
	Blocks, Uplinks int
	// LoadFraction scales the synthetic trace so its peak replayed epoch
	// offers this fraction of fabric capacity (default 0.6).
	LoadFraction float64
	Seed         uint64
}

// What no caller ever varied: four compute pods beside the fabric's own
// fleet pod, 400G trunks, a one-minute virtual epoch.
const (
	evalPods          = 4
	fabricPod         = "dcn"
	spareOCS          = 4
	trunkBps          = 50e9
	epochSeconds      = 60.0
	simSeconds        = 2.0
	meanFlowBytes     = 1e9
	recoveredFraction = 0.99 // goodput at or above this counts as recovered
)

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Blocks == 0 {
		c.Blocks = 8
	}
	if c.Uplinks == 0 {
		c.Uplinks = c.Blocks
	}
	if c.LoadFraction <= 0 {
		c.LoadFraction = 0.6
	}
	return c
}

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
// feed the te loop a capacity-derated observation. Phase B is the shared
// epoch flow-replay (te.ReplayFlows) over two rows, the intended and the
// degraded topology of every epoch, so the whole replay is bit-identical
// at any par worker count.
func Evaluate(cfg EvalConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	epochs := int(cfg.Scenario.HorizonSeconds / epochSeconds)
	if float64(epochs)*epochSeconds < cfg.Scenario.HorizonSeconds {
		epochs++
	}

	h, err := newHarness(cfg, epochs)
	if err != nil {
		return nil, err
	}
	defer h.lab.Close()
	if err := h.lab.Settle("initial convergence", allConverged); err != nil {
		return nil, err
	}

	// Subscribe only after setup convergence: boot-time event counts
	// depend on reconcile interleaving, fault-driven ones do not.
	sub := h.lab.Manager.Subscribe(4096)
	defer sub.Close()

	acts := cfg.Scenario.actions()
	ai := 0 // actions applied so far
	degraded := make([]*dcn.Topology, epochs)
	intended := make([]*dcn.Topology, epochs)
	for e := 0; e < epochs; e++ {
		// The fabric's owed repair pass lands at the epoch boundary —
		// the control plane reacts on its reconcile cadence, not
		// instantly.
		if err := h.inj.Heal(h.loop.Current()); err != nil {
			return nil, fmt.Errorf("chaos: heal before epoch %d: %w", e, err)
		}
		hi := float64(e+1) * epochSeconds
		for ai < len(acts) && acts[ai].at < hi {
			if err := h.applyAction(acts[ai]); err != nil {
				return nil, fmt.Errorf("chaos: %s at %gs: %w", acts[ai].ev.Kind, acts[ai].at, err)
			}
			ai++
		}
		intended[e] = h.loop.Current()
		degraded[e] = h.inj.Degraded(intended[e])
		// The te collector sees the fault as backed-off traffic on the
		// degraded pairs — production telemetry's view.
		obs := cloneMatrix(h.demand[e])
		h.inj.PerturbObserved(obs, intended[e], degraded[e])
		if _, err := h.loop.Advance(obs); err != nil {
			return nil, fmt.Errorf("chaos: te epoch %d: %w", e, err)
		}
	}

	// Phase B: goodput under failure, intended against degraded.
	sims := te.ReplayFlows([][]*dcn.Topology{intended, degraded}, h.demand,
		dcn.Workload{MeanFlowBytes: meanFlowBytes, Duration: simSeconds},
		dcn.SimConfig{TrunkBps: trunkBps, Seed: cfg.Seed})

	rep := &Report{
		Scenario:           cfg.Scenario.Name,
		Epochs:             epochs,
		EventsApplied:      ai,
		GoodputFraction:    make([]float64, epochs),
		MinGoodputFraction: 1,
	}
	for e := 0; e < epochs; e++ {
		in, dg := sims[0][e], sims[1][e]
		frac := 1.0
		switch err := errors.Join(in.Err, dg.Err); {
		case errors.Is(err, dcn.ErrDegenerate):
			// A demanded pair with no surviving path: the epoch is a
			// blackout, not an evaluator error.
			frac = 0
			rep.BlackoutEpochs++
		case err != nil:
			return nil, fmt.Errorf("chaos: flow sim epoch %d: %w", e, err)
		case in.Res.ThroughputBps > 0 && dg.Res.ThroughputBps < in.Res.ThroughputBps:
			frac = dg.Res.ThroughputBps / in.Res.ThroughputBps
		}
		rep.GoodputFraction[e] = frac
		if frac < rep.MinGoodputFraction {
			rep.MinGoodputFraction = frac
		}
	}
	rep.CapacityMTTRSeconds = capacityMTTR(rep.GoodputFraction, recoveredFraction, epochSeconds)

	rep.Pods = podOutcomes(h.lab.Pods, cfg.Scenario, drain(sub))
	rep.QuarantineBudgetOK = true
	for _, p := range rep.Pods {
		rep.QuarantineBudgetOK = rep.QuarantineBudgetOK && p.BudgetRespected
	}
	st := h.loop.Status()
	rep.TEReconfigs, rep.TEEpochs = st.Reconfigs, st.Epoch
	return rep, nil
}

// harness is what a scenario replays against: the lab's compute pods, the
// DCN fabric behind its own fleet pod, the te loop reconfiguring it, the
// injector over all three, and the normalized demand of every epoch.
type harness struct {
	lab    *Lab
	loop   *te.Loop
	inj    *Injector
	demand [][][]float64
}

func newHarness(cfg EvalConfig, epochs int) (_ *harness, err error) {
	ocsCfg := ocs.DefaultConfig()
	ocsCfg.Seed = sim.SubstreamSeed(cfg.Seed, 2000)
	fabric, err := dcn.NewFabric(cfg.Blocks, cfg.Uplinks+spareOCS, ocsCfg)
	if err != nil {
		return nil, err
	}
	lab, err := NewLab(cfg.Seed, memoryPods(evalPods), nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			lab.Close()
		}
	}()
	h := &harness{lab: lab}
	for _, name := range lab.Pods {
		// One slice per pod: backend faults need standing intent to fail
		// against, or the reconciler has nothing to reconcile.
		if err := lab.Manager.SetSliceIntent(name, fleet.SliceIntent{
			Name: "job-" + name, Shape: topo.Shape{X: 4, Y: 4, Z: 4},
		}); err != nil {
			return nil, err
		}
	}

	// BER samples ride the production telemetry path: a detector with the
	// KP4 FEC ceiling as its hard limit.
	det := telemetry.NewDetector(nil)
	det.HardLimit = fec.KP4Threshold
	h.inj, err = NewInjector(Targets{
		Fleet:     lab.Manager,
		Backends:  lab.Backends,
		Fabric:    fabric,
		FabricPod: fabricPod,
		Detector:  det,
	})
	if err != nil {
		return nil, err
	}
	// te reconfigurations take the fleet drain workflow like any DCN pod's,
	// on the fabric the injector fails: Program colors over the switches
	// the scenario has left up.
	applier, err := te.NewFleetApplier(lab.Manager, fabricPod, fabric)
	if err != nil {
		return nil, err
	}
	h.loop, err = te.NewLoop(te.Config{
		Blocks: cfg.Blocks, Uplinks: cfg.Uplinks, TrunkBps: trunkBps,
		EpochSeconds: epochSeconds,
		Applier:      survivorApplier{applier},
	})
	if err != nil {
		return nil, err
	}
	if _, err := fabric.Program(h.loop.Current()); err != nil {
		return nil, err
	}

	// The offered load: exactly the epochs the walk replays, the peak one
	// offering LoadFraction of fabric capacity.
	trace := evalTrace(cfg)
	h.demand = make([][][]float64, epochs)
	for e := range h.demand {
		if h.demand[e], err = trace.Epoch(e); err != nil {
			return nil, err
		}
	}
	if err := te.NormalizePeak(h.demand, cfg.LoadFraction*float64(cfg.Blocks*cfg.Uplinks)*trunkBps); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return h, nil
}

// survivorApplier applies TE plans under the chaos shortfall rule: a stage
// the surviving switches cannot host leaves the fabric as it was, the rest
// of that plan is not tried, and the loop carries on with the capacity
// degraded.
type survivorApplier struct{ *te.FleetApplier }

func (a survivorApplier) Apply(plan *te.Plan) error {
	return tolerateShortfall(a.FleetApplier.Apply(plan))
}

// evalTrace is the replay's offered load: a thin uniform background under
// long-lived services scattered over a horizon far longer than any replay.
func evalTrace(cfg EvalConfig) te.TraceConfig {
	return te.TraceConfig{
		Blocks: cfg.Blocks, Epochs: 1 << 20, BaseBps: 1,
		NumServices: 3 * cfg.Blocks, ServiceMeanBps: 10,
		ServiceMinEpochs: 16, Seed: sim.SubstreamSeed(cfg.Seed, 1000),
	}
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
			return h.lab.Settle("slow-drain lift", fleet.Status.Settled)
		}
		return nil
	}
	if err := h.inj.Apply(ev); err != nil {
		return err
	}
	switch ev.Kind {
	case KindPodLoss:
		return h.lab.Settle("quarantine of "+ev.Pod, Quarantined(ev.Pod))
	case KindPodRestore:
		return h.lab.Settle("recovery of "+ev.Pod, Recovered(ev.Pod))
	case KindOCSOutage, KindOCSRestore, KindStuckDrain, KindSlowDrain:
		return h.lab.Settle(string(ev.Kind)+" settle", fleet.Status.Settled)
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
func podOutcomes(pods []string, s Scenario, evs []fleet.Event) []PodOutcome {
	outs := make([]PodOutcome, 0, len(pods))
	for _, name := range pods {
		o := PodOutcome{Pod: name, BudgetRespected: true, MTTRSeconds: podMTTR(s, name)}
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
				if streak != labQuarantineAfter {
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

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}
