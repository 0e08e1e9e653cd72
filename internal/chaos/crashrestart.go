package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

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
	// Pods are the compute pods (default pod0..pod3).
	Pods []string
	// ChurnSteps is the mutation-step count (default 40).
	ChurnSteps int
	// QuarantineAfter is the reconciler retry budget (default 3).
	QuarantineAfter int
	// TornTailBytes of garbage appended to the active segment model a
	// record cut mid-write by the crash (default 7).
	TornTailBytes int
	// SettleTimeout bounds each real-time wait on the reconciler
	// (default 10s).
	SettleTimeout time.Duration
	Seed          uint64
}

func (c CrashRestartConfig) withDefaults() CrashRestartConfig {
	if len(c.Pods) == 0 {
		c.Pods = []string{"pod0", "pod1", "pod2", "pod3"}
	}
	if c.ChurnSteps == 0 {
		c.ChurnSteps = 40
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.TornTailBytes == 0 {
		c.TornTailBytes = 7
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 10 * time.Second
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
	// ReconvergeSeconds is wall-clock recovery-to-convergence time
	// (excluded from Text; real-time scheduling noise).
	ReconvergeSeconds float64
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

// crashSettle waits until the manager's status satisfies pred.
func crashSettle(m *fleet.Manager, timeout time.Duration, pred func(fleet.Status) bool, what string) error {
	if err := m.WaitStatus(timeout, what, pred); err != nil {
		return fmt.Errorf("chaos: crash-restart %w", err)
	}
	return nil
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

	// ---- Life A: the doomed control plane. ----
	store, err := wal.OpenStore(cfg.Dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	mgr := fleet.NewManager(fleet.Options{
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		QuarantineAfter: cfg.QuarantineAfter,
		Seed:            cfg.Seed,
		Journal:         store,
	})
	backends := make(map[string]*FaultyBackend, len(cfg.Pods))
	for _, name := range cfg.Pods {
		b := NewFaultyBackend(NewMemoryBackend())
		backends[name] = b
		if err := mgr.AddPod(name, b); err != nil {
			mgr.Close()
			store.Close()
			return nil, err
		}
	}
	inj, err := NewInjector(Targets{Fleet: mgr, Backends: backends})
	if err != nil {
		mgr.Close()
		store.Close()
		return nil, err
	}
	defer inj.Close()

	// Seeded churn. Slice sets dominate; removals, OCS drain/undrain
	// pairs and pod-loss→restore cycles ride along so every journal op
	// kind lands in the log.
	rng := sim.NewRand(cfg.Seed + 1)
	live := make(map[string][]string, len(cfg.Pods)) // pod → slice names
	for i := 0; i < cfg.ChurnSteps; i++ {
		pod := cfg.Pods[rng.Intn(len(cfg.Pods))]
		switch k := rng.Float64(); {
		case k < 0.55 || len(live[pod]) == 0:
			name := fmt.Sprintf("churn-%03d", i)
			if err := mgr.SetSliceIntent(pod, fleet.SliceIntent{
				Name: name, Shape: topo.Shape{X: 4, Y: 4, Z: 4},
			}); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			live[pod] = append(live[pod], name)
			rep.Mutations++
		case k < 0.75:
			names := live[pod]
			victim := names[rng.Intn(len(names))]
			if err := mgr.RemoveSliceIntent(pod, victim); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			out := names[:0]
			for _, n := range names {
				if n != victim {
					out = append(out, n)
				}
			}
			live[pod] = out
			rep.Mutations++
		case k < 0.9:
			ocsID := rng.Intn(48)
			if err := mgr.DrainOCS(pod, ocsID); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			if err := mgr.UndrainOCS(pod, ocsID); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			rep.Mutations += 2
		default:
			// Pod-loss mid-churn: new intent fails against the dead
			// backend until the reconciler quarantines; restore releases
			// it. Both derived verdicts are journaled.
			if err := inj.Apply(Event{Kind: KindPodLoss, Pod: pod}); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			name := fmt.Sprintf("churn-%03d", i)
			if err := mgr.SetSliceIntent(pod, fleet.SliceIntent{
				Name: name, Shape: topo.Shape{X: 4, Y: 4, Z: 4},
			}); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			live[pod] = append(live[pod], name)
			rep.Mutations++
			if err := crashSettle(mgr, cfg.SettleTimeout, func(st fleet.Status) bool {
				p, _ := st.Pod(pod)
				return p.Quarantined
			}, "quarantine of "+pod); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			if err := inj.Apply(Event{Kind: KindPodRestore, Pod: pod}); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			if err := crashSettle(mgr, cfg.SettleTimeout, func(st fleet.Status) bool {
				p, _ := st.Pod(pod)
				return !p.Quarantined && p.Converged
			}, "recovery of "+pod); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
			rep.FaultCycles++
		}
		if i == cfg.ChurnSteps/2 {
			// Mid-churn checkpoint: recovery must cross a snapshot + tail
			// boundary, not just replay a flat log.
			if err := store.Checkpoint(); err != nil {
				mgr.Close()
				store.Close()
				return nil, err
			}
		}
	}
	// Let reconcilers drain so the post-restart convergence claim is
	// about recovery, not leftover churn.
	if err := crashSettle(mgr, cfg.SettleTimeout, allConverged, "pre-crash convergence"); err != nil {
		mgr.Close()
		store.Close()
		return nil, err
	}

	rep.PreCrashDigest, err = store.FleetDigest()
	if err != nil {
		mgr.Close()
		store.Close()
		return nil, err
	}
	preState, err := store.FleetStateCopy()
	if err != nil {
		mgr.Close()
		store.Close()
		return nil, err
	}
	for _, p := range preState.Pods {
		rep.DesiredSlices += len(p.Slices)
	}

	// ---- The crash: no shutdown checkpoint, then a torn record. ----
	mgr.Close()
	if err := store.Close(); err != nil {
		return nil, err
	}
	if err := tearActiveSegment(cfg.Dir, cfg.TornTailBytes, rng); err != nil {
		return nil, err
	}

	// ---- Life B: recover from disk alone. ----
	store2, err := wal.OpenStore(cfg.Dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer store2.Close()
	st := store2.Status()
	rep.ReplayRecords = st.ReplayRecords
	rep.ReplayErrors = st.ReplayErrors
	rep.TruncatedBytes = st.TruncatedBytes
	rep.DroppedSegments = st.DroppedSegments
	rep.SnapshotLSN = st.Log.SnapshotLSN
	rep.LastLSN = st.Log.LastLSN
	rep.RecoveredDigest, err = store2.FleetDigest()
	if err != nil {
		return nil, err
	}
	rep.DigestMatch = rep.RecoveredDigest == rep.PreCrashDigest

	store2.BeginRecovery()
	mgr2 := fleet.NewManager(fleet.Options{
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		QuarantineAfter: cfg.QuarantineAfter,
		Seed:            cfg.Seed + 1,
		Journal:         store2,
	})
	defer mgr2.Close()
	for _, name := range cfg.Pods {
		if err := mgr2.AddPod(name, NewFaultyBackend(NewMemoryBackend())); err != nil {
			return nil, err
		}
	}
	if err := store2.RecoverFleet(mgr2); err != nil {
		return nil, err
	}
	store2.EndRecovery()

	begin := time.Now()
	convErr := crashSettle(mgr2, cfg.SettleTimeout, allConverged, "post-restart convergence")
	rep.ReconvergeSeconds = time.Since(begin).Seconds()
	rep.Reconverged = convErr == nil

	// Goodput proxy: the fraction of recovered desired slices the fresh
	// backends actually realized.
	realized := 0
	for _, p := range mgr2.Status().Pods {
		want := map[string]bool{}
		for _, s := range p.DesiredSlices {
			want[s] = true
		}
		for _, s := range p.ActualSlices {
			if want[s] {
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

// tearActiveSegment appends garbage to the newest log segment, modeling a
// frame cut mid-write by the crash. Replay must truncate it.
func tearActiveSegment(dir string, n int, rng *sim.Rand) error {
	if n <= 0 {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			segs = append(segs, name)
		}
	}
	if len(segs) == 0 {
		return fmt.Errorf("chaos: no log segments in %s", dir)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	garbage := make([]byte, n)
	for i := range garbage {
		garbage[i] = byte(rng.Uint64())
	}
	_, err = f.Write(garbage)
	return err
}
