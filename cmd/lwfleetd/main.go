// Command lwfleetd is the fleet control-plane daemon: it embeds N simulated
// superpod fabrics (pod0..podN-1), reconciles operator intents against them
// through internal/fleet's per-pod workers, and serves the fleet ctlrpc
// methods — fleet-status, apply-intent, drain, undrain and the watch event
// stream — on a TCP address for cmd/lwfctl.
//
// With -te-epoch it additionally runs the online topology-engineering
// loop (internal/te) over a simulated DCN fabric registered as the "dcn"
// pod: every reconfiguration stage drains and undrains the affected OCSes
// through the manager, so TE churn shows up on the fleet event stream and
// in pod status like any other maintenance. -te-blocks and -te-uplinks
// size the fabric, and `lwfctl te status` inspects the loop.
//
// With -chaos the daemon wraps each pod backend in an injectable fault
// shim and serves the chaos-inject / chaos-status RPCs (lwfctl chaos ...)
// for live fleet-plane fault drills; without the flag those RPCs are
// rejected.
//
// With -sched the daemon runs the online §4.2.4 slice scheduler
// (internal/sched via internal/superpod): a synthetic job stream is
// scheduled onto the superpod fabrics through the fleet reconciler, fleet
// quarantine/recovery events feed back as pod down/up transitions, and the
// sched-status / sched-submit RPCs (lwfctl sched ...) expose the loop;
// without the flag those RPCs report the scheduler disabled.
//
// With -state-dir the daemon journals every intent mutation to a
// write-ahead log (internal/wal) and snapshots periodically: on restart
// it replays the newest snapshot plus the log tail, re-applies the
// recovered intents through the manager, and lets reconciliation converge
// the fabrics back to them. Without the flag nothing touches disk and
// behavior is unchanged.
//
// Usage:
//
//	lwfleetd -addr 127.0.0.1:7700 -pods 4 -cubes 64 [-metrics-addr 127.0.0.1:7780] [-te-epoch 2s] [-chaos] [-sched] [-state-dir /var/lib/lwfleetd]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"lightwave/internal/chaos"
	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/daemon"
	"lightwave/internal/dcn"
	"lightwave/internal/fec"
	"lightwave/internal/fleet"
	"lightwave/internal/ocs"
	"lightwave/internal/par"
	"lightwave/internal/sched"
	"lightwave/internal/superpod"
	"lightwave/internal/te"
	"lightwave/internal/telemetry"
	"lightwave/internal/wal"
)

// config carries the parsed flags into compose: the ones every daemon
// shares plus the fleet daemon's own.
type config struct {
	daemon.Flags
	pods                int
	chaosOn             bool
	schedOn             bool
	schedTick           time.Duration
	teEpoch             time.Duration
	teBlocks, teUplinks int
}

func main() {
	var cfg config
	cfg.Register(flag.CommandLine, "127.0.0.1:7700", "installed elemental cubes per pod (1-64)")
	flag.IntVar(&cfg.pods, "pods", 4, "number of superpod fabrics to manage")
	flag.BoolVar(&cfg.chaosOn, "chaos", false, "enable fault injection (chaos-inject / chaos-status RPCs)")
	flag.BoolVar(&cfg.schedOn, "sched", false, "run the online slice scheduler (sched-status / sched-submit RPCs)")
	flag.DurationVar(&cfg.schedTick, "sched-tick", 2*time.Second, "scheduler wall-clock tick; each tick advances one virtual minute")
	flag.DurationVar(&cfg.teEpoch, "te-epoch", 0, "topology-engineering epoch length (0 disables the TE loop)")
	flag.IntVar(&cfg.teBlocks, "te-blocks", 8, "aggregation blocks in the TE loop's DCN fabric")
	flag.IntVar(&cfg.teUplinks, "te-uplinks", 14, "uplinks per block in the TE loop's DCN fabric")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		log.Fatalf("lwfleetd: %v", err)
	}
	d, err := daemon.Start(context.Background(), "lwfleetd", &cfg.Flags, cfg.compose)
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Wait(); err != nil {
		log.Fatal(err)
	}
}

// validate adds the fleet daemon's own flags to the shared checks.
func (cfg config) validate() error {
	if cfg.pods < 1 {
		return fmt.Errorf("-pods must be at least 1, got %d", cfg.pods)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.schedTick <= 0 {
		return fmt.Errorf("-sched-tick must be positive, got %s", cfg.schedTick)
	}
	if cfg.teEpoch < 0 {
		return fmt.Errorf("-te-epoch must not be negative, got %s", cfg.teEpoch)
	}
	if cfg.teEpoch > 0 && (cfg.teBlocks < 2 || cfg.teUplinks < 1) {
		return fmt.Errorf("-te-blocks/-te-uplinks must be at least 2/1, got %d/%d", cfg.teBlocks, cfg.teUplinks)
	}
	return nil
}

// newSchedRunner builds the online slice scheduler over the superpod pods
// without starting it, so recovery can restore the scheduler's state
// before the first tick.
func newSchedRunner(m *fleet.Manager, podNames []string, cubes int, tick time.Duration) (*superpod.Runner, error) {
	return superpod.NewRunner(superpod.RunnerConfig{
		Manager:        m,
		Pods:           podNames,
		InstalledCubes: cubes,
		Interval:       tick,
		Seed:           1,
	})
}

// buildFleet constructs a manager over n simulated pods named pod0..podN-1.
// All pods and the manager share one registry, so /metrics exposes the
// fleet-wide reconcile counters alongside per-pod fabric telemetry. With
// chaosOn each pod backend is wrapped in a chaos.FaultyBackend so the
// chaos-inject RPC can fail it; the map is nil otherwise. journal, when
// non-nil, receives every intent mutation write-ahead.
func buildFleet(n, cubes int, transceiver string, reg *telemetry.Registry, alerts telemetry.AlertSink, chaosOn bool, journal fleet.Journal) (*fleet.Manager, map[string]*chaos.FaultyBackend, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("lwfleetd: need at least 1 pod, got %d", n)
	}
	var injectable map[string]*chaos.FaultyBackend
	if chaosOn {
		injectable = make(map[string]*chaos.FaultyBackend, n)
	}
	cfg, err := daemon.PodConfig(cubes, transceiver, reg, alerts)
	if err != nil {
		return nil, nil, err
	}
	m := fleet.NewManager(fleet.Options{Metrics: reg, Alerts: alerts, Journal: journal})
	for i := 0; i < n; i++ {
		f, err := core.New(cfg)
		if err != nil {
			m.Close()
			return nil, nil, fmt.Errorf("building pod%d fabric: %w", i, err)
		}
		name := fmt.Sprintf("pod%d", i)
		var backend fleet.Backend = fleet.NewFabricBackend(f, nil)
		if chaosOn {
			fb := chaos.NewFaultyBackend(backend)
			injectable[name] = fb
			backend = fb
		}
		if err := m.AddPod(name, backend); err != nil {
			m.Close()
			return nil, nil, err
		}
	}
	return m, injectable, nil
}

// compose builds the fleet and its server on the shared daemon skeleton.
// Recovery order: the store arrives with journaling suppressed
// (BeginRecovery), the pods are rebuilt — the TE loop's "dcn" pod among
// them — RecoverFleet re-applies the recovered intents and drains,
// Attach restores the scheduler's section, EndRecovery resumes
// journaling, and only then does the TE loop undrain what the previous run
// left drained.
func (cfg config) compose(d *daemon.Daemon) (*ctlrpc.Server, error) {
	// The simulation and control packages this daemon runs report their
	// par_*, dcn_flowsim_*, te_*, chaos_* and sched_* counters alongside
	// the fleet's own metrics.
	par.SetRegistry(d.Reg)
	dcn.SetRegistry(d.Reg)
	te.SetRegistry(d.Reg)
	chaos.SetRegistry(d.Reg)
	sched.SetRegistry(d.Reg)

	store := d.Store
	var journal fleet.Journal
	if store != nil {
		journal = store
		st := store.Status()
		log.Printf("lwfleetd: state dir %s: replayed %d records to lsn %d (%d pods, %d slices, %d errors)",
			cfg.StateDir, st.ReplayRecords, st.LastLSN, st.FleetPods, st.FleetSlices, st.ReplayErrors)
	}

	m, injectable, err := buildFleet(cfg.pods, cfg.Cubes, cfg.Transceiver, d.Reg, d.Alerts, cfg.chaosOn, journal)
	if err != nil {
		return nil, err
	}
	d.OnShutdown(m.Close)
	var loop *te.Loop
	if cfg.teEpoch > 0 {
		if loop, err = cfg.newTELoop(m); err != nil {
			return nil, fmt.Errorf("starting te loop: %w", err)
		}
	}
	if store != nil {
		if err := store.RecoverFleet(m); err != nil {
			return nil, fmt.Errorf("lwfleetd: restoring intents: %w", err)
		}
	}
	log.Printf("lwfleetd: %d pods x %d cubes, %s modules", cfg.pods, cfg.Cubes, cfg.Transceiver)

	srv := ctlrpc.NewFleetServer(m)
	// ctl_requests_total / ctl_inflight / ctl_request_latency_seconds ride
	// the same registry as the fleet metrics.
	srv.SetMetrics(d.Reg)
	if store != nil {
		srv.SetWAL(store)
	}

	if cfg.chaosOn {
		// Fleet-plane faults only: pod-loss/-restore through the wrapped
		// backends, drains through the manager, trunk impairments as
		// injector bookkeeping. OCS outages need a fabric target and are
		// rejected — the shared te fabric is driven by its own loop.
		det := telemetry.NewDetector("chaos-ber", d.Alerts)
		det.HardLimit = fec.KP4Threshold
		inj, err := chaos.NewInjector(chaos.Targets{
			Fleet:    m,
			Backends: injectable,
			Detector: det,
		})
		if err != nil {
			return nil, fmt.Errorf("starting chaos injector: %w", err)
		}
		// Stops the lift timers, so nothing mutates state mid-snapshot.
		d.OnShutdown(inj.Close)
		srv.SetChaos(inj)
		log.Printf("lwfleetd: fault injection enabled (%d injectable pods)", len(injectable))
	}

	if cfg.schedOn {
		podNames := make([]string, cfg.pods)
		for i := range podNames {
			podNames[i] = fmt.Sprintf("pod%d", i)
		}
		runner, err := newSchedRunner(m, podNames, cfg.Cubes, cfg.schedTick)
		if err != nil {
			return nil, fmt.Errorf("starting sched loop: %w", err)
		}
		s := runner.Scheduler()
		if store != nil {
			// The scheduler is fresh: import the snapshot's state export,
			// replay the journaled input tail, and only then start
			// journaling new inputs.
			j, applied, failed, err := store.Attach(wal.RecordSched, s)
			if err != nil {
				return nil, fmt.Errorf("lwfleetd: restoring scheduler: %w", err)
			}
			if applied+failed > 0 {
				log.Printf("lwfleetd: sched recovery: %d entries replayed, %d failed", applied, failed)
			}
			s.SetJournal(j)
		}
		d.Go("sched loop", runner.Run)
		srv.SetSched(s)
		log.Printf("lwfleetd: slice scheduler on %d pods (tick %s, policy %s)",
			cfg.pods, cfg.schedTick, s.Policy())
	}

	// Recovery is complete; journal everything from here on, including the
	// TE loop's drains.
	if store != nil {
		store.EndRecovery()
	}

	if loop != nil {
		if err := cfg.runTE(d, m, loop); err != nil {
			return nil, fmt.Errorf("starting te loop: %w", err)
		}
		srv.SetTE(loop)
		log.Printf("lwfleetd: te loop on %d blocks x %d uplinks, epoch %s (pod %q)",
			cfg.teBlocks, cfg.teUplinks, cfg.teEpoch, tePod)
	}
	return srv, nil
}

const (
	// tePod is the fleet pod the TE loop's DCN fabric joins as.
	tePod = "dcn"
	// teTrunkBps is the DCN fabric's per-trunk, per-direction rate.
	teTrunkBps = 50e9
)

// newTELoop builds the DCN fabric from the -te-* flags, registers it with
// the manager as the tePod, and programs the loop's initial mesh onto it.
// Every stage the loop accepts drains and undrains its OCSes through the
// manager (te.FleetApplier).
func (cfg config) newTELoop(m *fleet.Manager) (*te.Loop, error) {
	fabric, err := dcn.NewFabric(cfg.teBlocks, cfg.teUplinks+2, ocs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	applier, err := te.NewFleetApplier(m, tePod, fabric)
	if err != nil {
		return nil, err
	}
	loop, err := te.NewLoop(te.Config{
		Blocks: cfg.teBlocks, Uplinks: cfg.teUplinks, TrunkBps: teTrunkBps,
		EpochSeconds: cfg.teEpoch.Seconds(),
		Applier:      applier,
	})
	if err != nil {
		return nil, err
	}
	if _, err := fabric.Program(loop.Current()); err != nil {
		return nil, err
	}
	return loop, nil
}

// runTE undrains, journaled, every OCS the previous run left drained on
// the tePod — a crash mid-stage leaves a drain without its undrain, and a
// fresh loop has no stage in flight — then registers the loop's ticker,
// which feeds one epoch of a synthetic trace every -te-epoch.
func (cfg config) runTE(d *daemon.Daemon, m *fleet.Manager, loop *te.Loop) error {
	ps, err := m.PodStatus(tePod)
	if err != nil {
		return err
	}
	for _, id := range ps.DrainedOCS {
		if err := m.UndrainOCS(tePod, id); err != nil {
			return err
		}
	}
	trace := teTrace(cfg.teBlocks)
	d.Go("te loop", func(ctx context.Context) error {
		tick := time.NewTicker(cfg.teEpoch)
		defer tick.Stop()
		for epoch := 0; ; epoch++ {
			select {
			case <-ctx.Done():
				return nil
			case <-tick.C:
			}
			demand, err := trace.Epoch(epoch % trace.Epochs)
			if err != nil {
				return err
			}
			plan, err := loop.Advance(demand)
			if err != nil {
				return err
			}
			if plan.Reconfigure {
				log.Printf("lwfleetd: te epoch %d: reconfigured in %d stages (gain %.3f, %.2fs, min residual %.2f)",
					epoch, len(plan.Stages), plan.PredictedGain, plan.Seconds, plan.MinResidualFraction)
			}
		}
	})
	return nil
}

// teTrace is the TE loop's offered load: hot service pairs well above
// trunk rate (so engineering pays), a thin background, a diurnal swing
// with bursts, and a horizon the ticker wraps around.
func teTrace(blocks int) te.TraceConfig {
	return te.TraceConfig{
		Blocks:           blocks,
		Epochs:           1 << 16,
		BaseBps:          teTrunkBps / 50,
		NumServices:      2 * blocks,
		ServiceMeanBps:   8 * teTrunkBps,
		DiurnalAmplitude: 0.3,
		BurstProb:        0.2,
		Seed:             1,
	}
}
