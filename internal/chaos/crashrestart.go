package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"lightwave/internal/fleet"
	"lightwave/internal/sim"
	"lightwave/internal/topo"
	"lightwave/internal/wal"
)

// CrashRestartConfig parameterizes the crash-restart drill: a journaled
// fleet manager churns through seeded intent mutations and injected pod
// faults, the process "dies" mid-stream (no shutdown snapshot, a torn
// record on the active segment), and a fresh manager recovers from the
// state directory alone.
type CrashRestartConfig struct {
	// Dir is the WAL state directory (required; the drill owns it).
	Dir string
	// ChurnSteps is the mutation-step count (default 40).
	ChurnSteps int
	Seed       uint64
}

const (
	// crashPods is the drill's compute-pod count.
	crashPods = 4
	// tornTailBytes of garbage appended to the active segment model a
	// record cut mid-write by the crash.
	tornTailBytes = 7
)

func (c CrashRestartConfig) withDefaults() CrashRestartConfig {
	if c.ChurnSteps == 0 {
		c.ChurnSteps = 40
	}
	return c
}

// CrashRestartReport is the drill's outcome. Text renders the
// deterministic subset (everything except wall-clock durations), so two
// runs with one seed agree byte-for-byte.
type CrashRestartReport struct {
	ChurnSteps int
	// Mutations counts intent mutations issued during churn.
	Mutations int
	// FaultCycles counts pod-loss→quarantine→restore cycles injected.
	FaultCycles int
	// PreCrashDigest/RecoveredDigest hash the canonical intent-store
	// encoding at the crash instant and after replay; DigestMatch is the
	// drill's core claim.
	PreCrashDigest  string
	RecoveredDigest string
	DigestMatch     bool
	// Replay statistics from reopening the state directory.
	ReplayRecords   int
	ReplayErrors    int
	TruncatedBytes  int64
	DroppedSegments int
	SnapshotLSN     uint64
	LastLSN         uint64
	// DesiredSlices is the recovered intent store's slice count;
	// RealizedFraction is how much of it the restarted reconcilers
	// converged onto fresh backends (goodput proxy: 1.0 = full recovery).
	DesiredSlices    int
	RealizedFraction float64
	Reconverged      bool
}

// Text renders the deterministic subset of the report.
func (r *CrashRestartReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash-restart report: steps=%d mutations=%d fault_cycles=%d\n",
		r.ChurnSteps, r.Mutations, r.FaultCycles)
	fmt.Fprintf(&b, "replay: records=%d errors=%d torn_bytes=%d dropped_segments=%d snapshot_lsn=%d last_lsn=%d\n",
		r.ReplayRecords, r.ReplayErrors, r.TruncatedBytes, r.DroppedSegments, r.SnapshotLSN, r.LastLSN)
	fmt.Fprintf(&b, "intent store: digest_match=%t slices=%d digest=%.16s…\n",
		r.DigestMatch, r.DesiredSlices, r.RecoveredDigest)
	fmt.Fprintf(&b, "reconverged=%t realized_fraction=%.6f\n", r.Reconverged, r.RealizedFraction)
	return b.String()
}

// EvaluateCrashRestart runs the drill: churn a journaled control plane,
// kill it without a shutdown snapshot, tear the active segment's tail,
// recover from disk, and verify the recovered intent store is
// byte-identical to the pre-crash one and that fresh reconcilers converge
// every recovered slice.
func EvaluateCrashRestart(cfg CrashRestartConfig) (*CrashRestartReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("%w: crash-restart needs a state dir", ErrConfig)
	}
	rep := &CrashRestartReport{ChurnSteps: cfg.ChurnSteps}
	rng := sim.NewRand(cfg.Seed + 1)

	if err := crashLifeA(cfg, rep, rng); err != nil {
		return nil, err
	}
	if err := tearActiveSegment(cfg.Dir, rng); err != nil {
		return nil, err
	}

	// ---- Life B: recover from disk alone. ----
	store, err := wal.OpenStore(cfg.Dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	st := store.Status()
	rep.ReplayRecords = st.ReplayRecords
	rep.ReplayErrors = st.ReplayErrors
	rep.TruncatedBytes = st.TruncatedBytes
	rep.DroppedSegments = st.DroppedSegments
	rep.SnapshotLSN = st.SnapshotLSN
	rep.LastLSN = st.LastLSN
	rep.RecoveredDigest, err = store.FleetDigest()
	if err != nil {
		return nil, err
	}
	rep.DigestMatch = rep.RecoveredDigest == rep.PreCrashDigest

	store.BeginRecovery()
	lab, err := NewLab(cfg.Seed+1, memoryPods(crashPods), store)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	if err := store.RecoverFleet(lab.Manager); err != nil {
		return nil, err
	}
	store.EndRecovery()

	rep.Reconverged = lab.Settle("post-restart convergence", allConverged) == nil

	// Goodput proxy: the fraction of recovered desired slices the fresh
	// backends actually realized.
	realized := 0
	for _, p := range lab.Manager.Status().Pods {
		for _, s := range p.ActualSlices {
			if slices.Contains(p.DesiredSlices, s) {
				realized++
			}
		}
	}
	if rep.DesiredSlices > 0 {
		rep.RealizedFraction = float64(realized) / float64(rep.DesiredSlices)
	} else {
		rep.RealizedFraction = 1
	}
	return rep, nil
}

// crashLifeA is the doomed control plane: it churns a journaled lab, records
// the pre-crash intent digest in rep, and dies. The deferred teardown is
// the crash on every path out: reconcilers stop, the store closes with no
// shutdown checkpoint.
func crashLifeA(cfg CrashRestartConfig, rep *CrashRestartReport, rng *sim.Rand) (err error) {
	store, err := wal.OpenStore(cfg.Dir, wal.Options{})
	if err != nil {
		return err
	}
	lab, err := NewLab(cfg.Seed, memoryPods(crashPods), store)
	if err != nil {
		store.Close()
		return err
	}
	defer func() {
		lab.Close()
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	mgr := lab.Manager
	inj, err := NewInjector(Targets{Fleet: mgr, Backends: lab.Backends})
	if err != nil {
		return err
	}
	defer inj.Close()
	setSlice := func(pod, name string) error {
		return mgr.SetSliceIntent(pod, fleet.SliceIntent{Name: name, Shape: topo.Shape{X: 4, Y: 4, Z: 4}})
	}

	// Seeded churn. Slice sets dominate; removals, OCS drain/undrain
	// pairs and pod-loss→restore cycles ride along so every journal op
	// kind lands in the log.
	live := make(map[string][]string, crashPods) // pod → slice names
	for i := 0; i < cfg.ChurnSteps; i++ {
		pod := lab.Pods[rng.Intn(crashPods)]
		name := fmt.Sprintf("churn-%03d", i)
		switch k := rng.Float64(); {
		case k < 0.55 || len(live[pod]) == 0:
			if err := setSlice(pod, name); err != nil {
				return err
			}
			live[pod] = append(live[pod], name)
			rep.Mutations++
		case k < 0.75:
			names := live[pod]
			victim := names[rng.Intn(len(names))]
			if err := mgr.RemoveSliceIntent(pod, victim); err != nil {
				return err
			}
			live[pod] = slices.DeleteFunc(names, func(n string) bool { return n == victim })
			rep.Mutations++
		case k < 0.9:
			ocsID := rng.Intn(48)
			if err := mgr.DrainOCS(pod, ocsID); err != nil {
				return err
			}
			if err := mgr.UndrainOCS(pod, ocsID); err != nil {
				return err
			}
			rep.Mutations += 2
		default:
			// Pod-loss mid-churn: new intent fails against the dead
			// backend until the reconciler quarantines; restore releases
			// it. Both derived verdicts are journaled.
			if err := inj.Apply(Event{Kind: KindPodLoss, Pod: pod}); err != nil {
				return err
			}
			if err := setSlice(pod, name); err != nil {
				return err
			}
			live[pod] = append(live[pod], name)
			rep.Mutations++
			if err := lab.Settle("quarantine of "+pod, Quarantined(pod)); err != nil {
				return err
			}
			if err := inj.Apply(Event{Kind: KindPodRestore, Pod: pod}); err != nil {
				return err
			}
			if err := lab.Settle("recovery of "+pod, Recovered(pod)); err != nil {
				return err
			}
			rep.FaultCycles++
		}
		if i == cfg.ChurnSteps/2 {
			// Mid-churn checkpoint: recovery must cross a snapshot + tail
			// boundary, not just replay a flat log.
			if err := store.Checkpoint(); err != nil {
				return err
			}
		}
	}
	// Let reconcilers drain so the post-restart convergence claim is
	// about recovery, not leftover churn.
	if err := lab.Settle("pre-crash convergence", allConverged); err != nil {
		return err
	}

	if rep.PreCrashDigest, err = store.FleetDigest(); err != nil {
		return err
	}
	preState, err := store.FleetStateCopy()
	if err != nil {
		return err
	}
	for _, p := range preState.Pods {
		rep.DesiredSlices += len(p.Slices)
	}
	return nil
}

// tearActiveSegment appends tornTailBytes of garbage to the newest log
// segment, modeling a frame cut mid-write by the crash. Replay must
// truncate it.
func tearActiveSegment(dir string, rng *sim.Rand) error {
	entries, err := os.ReadDir(dir) // sorted by name, so the last match is the newest
	if err != nil {
		return err
	}
	active := ""
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			active = name
		}
	}
	if active == "" {
		return fmt.Errorf("chaos: no log segments in %s", dir)
	}
	f, err := os.OpenFile(filepath.Join(dir, active), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	garbage := make([]byte, tornTailBytes)
	for i := range garbage {
		garbage[i] = byte(rng.Uint64())
	}
	_, err = f.Write(garbage)
	return err
}
