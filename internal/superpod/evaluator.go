package superpod

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"lightwave/internal/chaos"
	"lightwave/internal/core"
	"lightwave/internal/fleet"
	"lightwave/internal/par"
	"lightwave/internal/sched"
	"lightwave/internal/sim"
)

// EvalConfig parameterizes a live replay of the §4.2.4 experiment: one
// deterministic job/fault stream generated up front, then replayed per
// placement policy against real core.Fabric pods behind a fleet.Manager
// (with fault-injectable backends). The three policies see byte-identical
// streams, so the utilization gap is apples-to-apples.
type EvalConfig struct {
	// Pods is the superpod count (default 2); CubesPerPod sizes each
	// fabric (default 64 — the full pod).
	Pods        int
	CubesPerPod int
	// Mix is the offered workload (default sched.ProductionMix).
	Mix sched.JobMix
	// HorizonSeconds is the virtual replay length (default 12000);
	// WarmupSeconds is excluded from utilization/wait measurement
	// (default 2000).
	HorizonSeconds float64
	WarmupSeconds  float64
	// BackfillWindow is the scheduler's backfill depth (default 64, the
	// offline reference configuration).
	BackfillWindow int
	// CubeMTBF enables cube-failure injection (mean time between failures
	// of one cube, seconds; 0 disables); repairs take MeanRepairSeconds
	// (default 3600).
	CubeMTBF          float64
	MeanRepairSeconds float64
	// PodLossAtSeconds > 0 fails the last pod's whole backend at that
	// virtual time; PodRestoreAtSeconds heals it (0 = never).
	PodLossAtSeconds    float64
	PodRestoreAtSeconds float64
	Seed                uint64
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Pods <= 0 {
		c.Pods = 2
	}
	if c.CubesPerPod <= 0 {
		c.CubesPerPod = 64
	}
	if len(c.Mix.Sizes) == 0 {
		c.Mix = sched.ProductionMix()
	}
	if c.HorizonSeconds <= 0 {
		c.HorizonSeconds = 12000
	}
	if c.WarmupSeconds <= 0 {
		c.WarmupSeconds = 2000
	}
	if c.BackfillWindow <= 0 {
		c.BackfillWindow = 64
	}
	if c.MeanRepairSeconds <= 0 {
		c.MeanRepairSeconds = 3600
	}
	return c
}

// event kinds, replayed in (time, generation order).
type evKind int

const (
	evArrival evKind = iota
	evWarmup
	evFail
	evRepair
	evPodLoss
	evPodRestore
)

type event struct {
	at   float64
	kind evKind
	pod  int // pod index (fail/repair/loss/restore)
	cube int
	spec sched.JobSpec
}

// genEvents builds the shared deterministic stream: arrivals from one
// substream, per-pod failure/repair pairs from per-pod substreams, plus
// the warmup marker and the configured pod-loss window.
func genEvents(cfg EvalConfig) []event {
	var evs []event
	arr := sim.Substream(cfg.Seed, 1)
	for t := arr.ExpFloat64() / cfg.Mix.ArrivalRate; t < cfg.HorizonSeconds; t += arr.ExpFloat64() / cfg.Mix.ArrivalRate {
		evs = append(evs, event{at: t, kind: evArrival, spec: cfg.Mix.Sample(arr)})
	}
	evs = append(evs, event{at: cfg.WarmupSeconds, kind: evWarmup})
	if cfg.CubeMTBF > 0 {
		for p := 0; p < cfg.Pods; p++ {
			rng := sim.Substream(cfg.Seed, 100+uint64(p))
			rate := float64(cfg.CubesPerPod) / cfg.CubeMTBF
			for t := rng.ExpFloat64() / rate; t < cfg.HorizonSeconds; t += rng.ExpFloat64() / rate {
				cube := rng.Intn(cfg.CubesPerPod)
				evs = append(evs, event{at: t, kind: evFail, pod: p, cube: cube})
				if rt := t + rng.ExpFloat64()*cfg.MeanRepairSeconds; rt < cfg.HorizonSeconds {
					evs = append(evs, event{at: rt, kind: evRepair, pod: p, cube: cube})
				}
			}
		}
	}
	if cfg.PodLossAtSeconds > 0 {
		evs = append(evs, event{at: cfg.PodLossAtSeconds, kind: evPodLoss, pod: cfg.Pods - 1})
		if cfg.PodRestoreAtSeconds > cfg.PodLossAtSeconds {
			evs = append(evs, event{at: cfg.PodRestoreAtSeconds, kind: evPodRestore, pod: cfg.Pods - 1})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// PolicyOutcome is one placement policy's ride through the stream.
type PolicyOutcome struct {
	Policy string
	Stats  sched.SchedulerStats
	// FailsApplied/FailsSkipped count cube-failure events injected vs
	// dropped (cube already failed, or pod down); likewise repairs.
	FailsApplied, FailsSkipped     int
	RepairsApplied, RepairsSkipped int
	// Quarantined reports whether the pod-loss event drove its pod into
	// reconciler quarantine (false when no jobs were stranded, or no loss
	// was configured).
	Quarantined bool
	// AccountingOK is the exactness invariant: started jobs are completed,
	// preempted, or still running — never double counted.
	AccountingOK bool
	// Consistent reports that at horizon the live fabric carried exactly
	// the scheduler's running slice set with matching cube health.
	Consistent bool
}

// Report is the evaluator outcome; Text renders it in a fixed format so
// replays agree exactly iff their reports are byte-identical.
type Report struct {
	Pods, CubesPerPod       int
	HorizonSeconds          float64
	WarmupSeconds           float64
	Seed                    uint64
	Arrivals                int
	FailEvents, PodLossEvts int
	Policies                []PolicyOutcome
	// UtilizationGap is reconfigurable minus contiguous utilization.
	UtilizationGap float64
}

// Text renders the report deterministically.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "superpod report: pods=%d cubes_per_pod=%d horizon_s=%.0f warmup_s=%.0f seed=%d\n",
		r.Pods, r.CubesPerPod, r.HorizonSeconds, r.WarmupSeconds, r.Seed)
	fmt.Fprintf(&b, "events: arrivals=%d cube_failures=%d pod_losses=%d\n",
		r.Arrivals, r.FailEvents, r.PodLossEvts)
	for _, p := range r.Policies {
		fmt.Fprintf(&b, "policy %s: util=%.4f started=%d completed=%d preempted=%d swaps=%d migrated_cubes=%d queued_end=%d running_end=%d mean_wait_s=%.3f fails=%d/%d repairs=%d/%d quarantined=%t accounting_ok=%t consistent=%t\n",
			p.Policy, p.Stats.Utilization, p.Stats.Started, p.Stats.Completed, p.Stats.Preempted,
			p.Stats.Swaps, p.Stats.MigratedCubes, p.Stats.QueueDepth, p.Stats.RunningJobs,
			p.Stats.MeanWaitSeconds, p.FailsApplied, p.FailsApplied+p.FailsSkipped,
			p.RepairsApplied, p.RepairsApplied+p.RepairsSkipped, p.Quarantined, p.AccountingOK, p.Consistent)
	}
	fmt.Fprintf(&b, "gap reconfigurable-contiguous: %.4f\n", r.UtilizationGap)
	return b.String()
}

// Evaluate replays the generated stream under the three §4.2.4 policies —
// reconfigurable, contiguous, contiguous+defrag — each against its own
// live fleet.Manager + core.Fabric control plane. Policies fan out on the
// par worker pool; each replay is sequential and deterministic, so the
// report is bit-identical at any worker count.
func Evaluate(cfg EvalConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Mix.Validate(); err != nil {
		return nil, fmt.Errorf("superpod: %w", err)
	}
	events := genEvents(cfg)

	rep := &Report{
		Pods: cfg.Pods, CubesPerPod: cfg.CubesPerPod,
		HorizonSeconds: cfg.HorizonSeconds, WarmupSeconds: cfg.WarmupSeconds,
		Seed: cfg.Seed,
	}
	for _, ev := range events {
		switch ev.kind {
		case evArrival:
			rep.Arrivals++
		case evFail:
			rep.FailEvents++
		case evPodLoss:
			rep.PodLossEvts++
		}
	}

	policies := []sched.Placer{sched.Reconfigurable{}, sched.Contiguous{}, sched.ContiguousWithDefrag{}}
	type out struct {
		po  PolicyOutcome
		err error
	}
	outs := par.Sweep("superpod_eval", policies, func(_ int, pol sched.Placer) out {
		po, err := runPolicy(cfg, events, pol)
		return out{po, err}
	})
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("superpod: policy %s: %w", policies[i].Name(), o.err)
		}
		rep.Policies = append(rep.Policies, o.po)
	}
	rep.UtilizationGap = rep.Policies[0].Stats.Utilization - rep.Policies[1].Stats.Utilization
	return rep, nil
}

// runPolicy builds one live control plane — the chaos lab over real
// core.Fabric pods — and replays the stream.
func runPolicy(cfg EvalConfig, events []event, pol sched.Placer) (PolicyOutcome, error) {
	po := PolicyOutcome{Policy: pol.Name()}

	fbs := make([]*fleet.FabricBackend, cfg.Pods)
	inner := make([]fleet.Backend, cfg.Pods)
	for i := range fbs {
		f, err := core.New(core.DefaultConfig(cfg.CubesPerPod))
		if err != nil {
			return po, err
		}
		fbs[i] = fleet.NewFabricBackend(f, nil)
		inner[i] = fbs[i]
	}
	lab, err := chaos.NewLab(cfg.Seed, inner, nil)
	if err != nil {
		return po, err
	}
	defer lab.Close()
	mgr, pods := lab.Manager, lab.Pods

	s, err := sched.NewScheduler(sched.SchedulerConfig{
		Pods:           pods,
		InstalledCubes: cfg.CubesPerPod,
		Placer:         pol,
		BackfillWindow: cfg.BackfillWindow,
		Ops:            FleetOps{M: mgr},
	})
	if err != nil {
		return po, err
	}

	settle := func(what string) error { return lab.Settle(what, fleet.Status.Settled) }

	down := make([]bool, cfg.Pods)
	for _, ev := range events {
		if err := s.AdvanceTo(ev.at); err != nil {
			return po, err
		}
		switch ev.kind {
		case evArrival:
			if _, _, err := s.Submit(ev.spec); err != nil {
				return po, err
			}
		case evWarmup:
			s.StartMeasurement()
		case evFail:
			st, err := s.CubeState(pods[ev.pod], ev.cube)
			if err != nil {
				return po, err
			}
			if down[ev.pod] || st == sched.Failed {
				po.FailsSkipped++
				continue
			}
			// Scheduler first: it evicts or swaps the victim job off the
			// cube (intent updates), the fleet realizes the moves, and only
			// then is the cube marked failed on the hardware — so the mark
			// must find it unowned.
			if err := s.FailCube(pods[ev.pod], ev.cube); err != nil {
				return po, err
			}
			if err := settle(fmt.Sprintf("cube %d failure on %s", ev.cube, pods[ev.pod])); err != nil {
				return po, err
			}
			rc, err := fbs[ev.pod].FailCube(ev.cube)
			if err != nil {
				return po, err
			}
			if rc != -1 {
				return po, fmt.Errorf("cube %d on %s still owned at hardware failure (swap rc=%d)", ev.cube, pods[ev.pod], rc)
			}
			po.FailsApplied++
		case evRepair:
			st, err := s.CubeState(pods[ev.pod], ev.cube)
			if err != nil {
				return po, err
			}
			if down[ev.pod] || st != sched.Failed {
				po.RepairsSkipped++
				continue
			}
			// Hardware first so the cube is genuinely usable when the
			// scheduler immediately re-places queued jobs onto it.
			if err := fbs[ev.pod].RepairCube(ev.cube); err != nil {
				return po, err
			}
			if err := s.RepairCube(pods[ev.pod], ev.cube); err != nil {
				return po, err
			}
			po.RepairsApplied++
		case evPodLoss:
			// Arrivals do not wait for the reconciler, so the fabric may lag
			// the scheduler by many passes here. Catch up first: the fault
			// must land on exactly the scheduler's running slices, not on
			// however far the workers happened to get.
			if err := settle("pre pod-loss convergence"); err != nil {
				return po, err
			}
			// With slices stranded on the dead backend every pass fails (the
			// destroy of an evicted slice, or the ensure of a kept one), so
			// the retry budget must run out; an empty pod has nothing to
			// fail on and reconverges. Wait for whichever the stream implies.
			settled := chaos.Recovered(pods[ev.pod])
			if len(fbs[ev.pod].Slices()) > 0 {
				settled = chaos.Quarantined(pods[ev.pod])
			}
			lab.Backends[pods[ev.pod]].Fail(errors.New("superpod: pod lost"))
			if err := s.SetPodDown(pods[ev.pod], true); err != nil {
				return po, err
			}
			if err := mgr.Poke(pods[ev.pod]); err != nil {
				return po, err
			}
			if err := lab.Settle("pod loss settle", settled); err != nil {
				return po, err
			}
			ps, err := mgr.PodStatus(pods[ev.pod])
			if err != nil {
				return po, err
			}
			po.Quarantined = ps.Quarantined
			down[ev.pod] = true
		case evPodRestore:
			lab.Backends[pods[ev.pod]].Heal()
			if err := mgr.UndrainPod(pods[ev.pod]); err != nil {
				return po, err
			}
			if err := lab.Settle("pod restore settle", chaos.Recovered(pods[ev.pod])); err != nil {
				return po, err
			}
			down[ev.pod] = false
			if err := s.SetPodDown(pods[ev.pod], false); err != nil {
				return po, err
			}
		}
	}
	if err := s.AdvanceTo(cfg.HorizonSeconds); err != nil {
		return po, err
	}
	if err := settle("final convergence"); err != nil {
		return po, err
	}

	po.Stats = s.Stats()
	po.AccountingOK = po.Stats.Completed+po.Stats.Preempted+po.Stats.RunningJobs == po.Stats.Started

	// Consistency: every up pod's fabric must carry exactly the
	// scheduler's running slices, with cube health in lockstep.
	po.Consistent = true
	want := s.RunningSlices()
	for i, name := range pods {
		if down[i] {
			continue // backend faulted: intent cannot be realized
		}
		got := fbs[i].Slices()
		sort.Strings(got)
		exp := slices.Clone(want[name])
		sort.Strings(exp)
		if !slices.Equal(got, exp) {
			po.Consistent = false
		}
		for c := 0; c < cfg.CubesPerPod; c++ {
			st, err := s.CubeState(name, c)
			if err != nil {
				return po, err
			}
			if (st == sched.Failed) == fbs[i].CubeHealthy(c) {
				po.Consistent = false
			}
		}
	}
	return po, nil
}
