// Package daemon is the one lifecycle cmd/lwfd and cmd/lwfleetd share: the
// common flags and their validation, registry and alert wiring, the
// -state-dir open → recovery bracket → close, the metrics listener, the
// TE loop, and a single boot and shutdown order. A daemon's main parses
// flags and hands Start a compose function that builds its state, fills a
// ctlrpc.Server and registers its background loops and closers; nothing
// here knows which daemon it is running.
//
// Boot:     registry + alerts → open store (journaling suppressed) →
// compose → open the control listener → metrics listener → start every
// registered loop (plus the periodic checkpoint) → serve.
//
// Shutdown: stop accepting and drain connections → cancel → join every
// registered loop → run closers in reverse → final checkpoint → close the
// store. A failed boot takes the same path from "cancel" on, minus the
// checkpoint; loops only start once the whole composition succeeded, so
// no exit path can close the store under a running loop.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"lightwave/internal/chaos"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/dcn"
	"lightwave/internal/ocs"
	"lightwave/internal/optics"
	"lightwave/internal/par"
	"lightwave/internal/sched"
	"lightwave/internal/te"
	"lightwave/internal/telemetry"
	"lightwave/internal/wal"
)

// Flags are the flags both daemons define.
type Flags struct {
	Addr, MetricsAddr   string
	Cubes               int
	Transceiver         string
	TEEpoch             time.Duration
	TEBlocks, TEUplinks int
	StateDir            string
	StateSnapshot       time.Duration
}

// Register declares the shared flags; the listen default and the -cubes
// help string, which differ per daemon, are the caller's.
func (f *Flags) Register(fs *flag.FlagSet, addr, cubesHelp string) {
	fs.StringVar(&f.Addr, "addr", addr, "listen address")
	fs.IntVar(&f.Cubes, "cubes", 64, cubesHelp)
	fs.StringVar(&f.Transceiver, "transceiver", "2x200G-bidi-CWDM4", "transceiver generation")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "HTTP /metrics and /debug/pprof listen address (disabled when empty)")
	fs.DurationVar(&f.TEEpoch, "te-epoch", 0, "topology-engineering epoch length (0 disables the TE loop)")
	fs.IntVar(&f.TEBlocks, "te-blocks", 8, "aggregation blocks in the TE loop's DCN fabric")
	fs.IntVar(&f.TEUplinks, "te-uplinks", 14, "uplinks per block in the TE loop's DCN fabric")
	fs.StringVar(&f.StateDir, "state-dir", "", "durable-state directory: WAL + snapshots with crash recovery (disabled when empty)")
	fs.DurationVar(&f.StateSnapshot, "state-snapshot", time.Minute, "periodic snapshot + log compaction interval (0 snapshots only on shutdown)")
}

// Validate rejects nonsense flag values up front with a one-line error
// instead of a late failure deep in construction.
func (f *Flags) Validate() error {
	if f.Cubes < 1 || f.Cubes > 64 {
		return fmt.Errorf("-cubes must be in 1-64, got %d", f.Cubes)
	}
	if _, err := optics.GenerationByName(f.Transceiver); err != nil {
		return fmt.Errorf("-transceiver: %v", err)
	}
	if f.TEEpoch < 0 {
		return fmt.Errorf("-te-epoch must not be negative, got %s", f.TEEpoch)
	}
	if f.TEEpoch > 0 && (f.TEBlocks < 2 || f.TEUplinks < 1) {
		return fmt.Errorf("-te-blocks/-te-uplinks must be at least 2/1, got %d/%d", f.TEBlocks, f.TEUplinks)
	}
	if f.StateSnapshot < 0 {
		return fmt.Errorf("-state-snapshot must not be negative, got %s", f.StateSnapshot)
	}
	return nil
}

// Daemon is one running control-plane process.
type Daemon struct {
	Name  string // log prefix
	Flags *Flags
	// Reg receives every subsystem's metrics and backs /metrics; Alerts
	// logs each alert.
	Reg    *telemetry.Registry
	Alerts telemetry.AlertSink
	// Store is nil without -state-dir. It is opened with journaling
	// suppressed; compose calls Store.EndRecovery once it has rebuilt
	// what the log already records.
	Store *wal.Store

	loops   []loop
	closers []func()

	cancel context.CancelFunc
	lis    net.Listener
	wg     sync.WaitGroup
	served chan error
}

type loop struct {
	name string
	fn   func(context.Context) error
}

// Go registers a background loop. It starts once the control listener is
// open and is joined, after ctx cancels, before any closer runs.
func (d *Daemon) Go(name string, fn func(context.Context) error) {
	d.loops = append(d.loops, loop{name, fn})
}

// OnShutdown registers a closer. Closers run in reverse registration
// order after every loop has returned and before the final checkpoint,
// on every exit path.
func (d *Daemon) OnShutdown(fn func()) { d.closers = append(d.closers, fn) }

// Start boots a daemon through to serving: it wires the registry, opens
// the store, runs compose, then opens the listeners and starts the loops
// and the server. On error everything compose registered is torn down in
// shutdown order before Start returns.
func Start(ctx context.Context, name string, f *Flags, compose func(*Daemon) (*ctlrpc.Server, error)) (*Daemon, error) {
	d := &Daemon{Name: name, Flags: f, Reg: telemetry.NewRegistry()}
	// Whatever simulation or control work the daemon runs reports its
	// par_*, dcn_flowsim_*, te_*, chaos_* and sched_* counters alongside
	// its own metrics.
	par.SetRegistry(d.Reg)
	dcn.SetRegistry(d.Reg)
	te.SetRegistry(d.Reg)
	chaos.SetRegistry(d.Reg)
	sched.SetRegistry(d.Reg)
	d.Alerts = telemetry.SinkFunc(func(a telemetry.Alert) {
		log.Printf("ALERT [%s] %s: %s", a.Severity, a.Source, a.Message)
	})

	ctx, d.cancel = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	if f.StateDir != "" {
		store, err := wal.OpenStore(f.StateDir, wal.Options{Metrics: d.Reg})
		if err != nil {
			d.cancel()
			return nil, fmt.Errorf("%s: opening -state-dir: %w", name, err)
		}
		store.BeginRecovery()
		d.Store = store
	}
	if err := d.boot(ctx, compose); err != nil {
		d.shutdown(false)
		return nil, err
	}
	return d, nil
}

func (d *Daemon) boot(ctx context.Context, compose func(*Daemon) (*ctlrpc.Server, error)) error {
	srv, err := compose(d)
	if err != nil {
		return err
	}
	if d.lis, err = net.Listen("tcp", d.Flags.Addr); err != nil {
		return err
	}
	log.Printf("%s: serving on %s", d.Name, d.lis.Addr())
	if d.Flags.MetricsAddr != "" {
		mlis, err := d.Reg.ServeMetrics(ctx, d.Flags.MetricsAddr)
		if err != nil {
			d.lis.Close()
			return err
		}
		log.Printf("%s: metrics on http://%s/metrics", d.Name, mlis.Addr())
	}
	if d.Store != nil && d.Flags.StateSnapshot > 0 {
		d.Go("periodic snapshot", d.checkpointEvery)
	}
	for _, l := range d.loops {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := l.fn(ctx); err != nil {
				log.Printf("%s: %s stopped: %v", d.Name, l.name, err)
			}
		}()
	}
	d.served = make(chan error, 1)
	go func() { d.served <- srv.Serve(ctx, d.lis) }()
	return nil
}

func (d *Daemon) checkpointEvery(ctx context.Context) error {
	tick := time.NewTicker(d.Flags.StateSnapshot)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if err := d.Store.Checkpoint(); err != nil {
				log.Printf("%s: periodic snapshot: %v", d.Name, err)
			}
		}
	}
}

// Addr is the control listener's address.
func (d *Daemon) Addr() net.Addr { return d.lis.Addr() }

// Wait serves until the context Start was given is cancelled (or
// SIGINT/SIGTERM arrives, or the listener fails), then shuts down in the
// declared order and returns the server's error.
func (d *Daemon) Wait() error {
	// Serve returns only once every connection has drained, so no command
	// is mid-execution from here on.
	err := <-d.served
	d.shutdown(true)
	return err
}

// shutdown is the single teardown path: cancel → join every loop → run
// closers in reverse → final checkpoint (clean exits only: a failed boot
// may hold half-recovered state) → close the store.
func (d *Daemon) shutdown(clean bool) {
	d.cancel()
	d.wg.Wait()
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	if d.Store == nil {
		return
	}
	if clean {
		if err := d.Store.Checkpoint(); err != nil {
			log.Printf("%s: shutdown snapshot: %v", d.Name, err)
		} else {
			log.Printf("%s: shutdown snapshot at lsn %d", d.Name, d.Store.Log().LastLSN())
		}
	}
	if err := d.Store.Close(); err != nil {
		log.Printf("%s: closing state dir: %v", d.Name, err)
	}
}

// StartTE builds the DCN fabric and TE loop from the -te-* flags and
// registers the loop's ticker, which feeds one epoch of a synthetic trace
// every -te-epoch; applier adapts the fabric to however this daemon wants
// stages applied. Call only when -te-epoch is set.
func (d *Daemon) StartTE(applier func(*dcn.Fabric) (te.Applier, error)) (*te.Loop, error) {
	const trunkBps = 50e9
	f := d.Flags
	fabric, err := dcn.NewFabric(f.TEBlocks, f.TEUplinks+2, ocs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	a, err := applier(fabric)
	if err != nil {
		return nil, err
	}
	loop, err := te.NewLoop(te.Config{
		Blocks: f.TEBlocks, Uplinks: f.TEUplinks, TrunkBps: trunkBps,
		EpochSeconds: f.TEEpoch.Seconds(),
		Applier:      a,
	})
	if err != nil {
		return nil, err
	}
	if _, err := fabric.Program(loop.Current()); err != nil {
		return nil, err
	}
	trace := teTrace(f.TEBlocks, trunkBps)
	d.Go("te loop", func(ctx context.Context) error {
		tick := time.NewTicker(f.TEEpoch)
		defer tick.Stop()
		for epoch := 0; ; epoch++ {
			select {
			case <-ctx.Done():
				return nil
			case <-tick.C:
			}
			m, err := trace.Epoch(epoch % trace.Epochs)
			if err != nil {
				return err
			}
			plan, err := loop.Advance(m)
			if err != nil {
				return err
			}
			if plan.Reconfigure {
				log.Printf("%s: te epoch %d: reconfigured in %d stages (gain %.3f, %.2fs, min residual %.2f)",
					d.Name, epoch, len(plan.Stages), plan.PredictedGain, plan.Seconds, plan.MinResidualFraction)
			}
		}
	})
	return loop, nil
}

// teTrace is the TE loop's offered load: hot service pairs well above
// trunk rate (so engineering pays), a thin background, a diurnal swing
// with bursts, and a horizon the ticker wraps around.
func teTrace(blocks int, trunkBps float64) te.TraceConfig {
	return te.TraceConfig{
		Blocks:           blocks,
		Epochs:           1 << 16,
		BaseBps:          trunkBps / 50,
		NumServices:      2 * blocks,
		ServiceMeanBps:   8 * trunkBps,
		DiurnalAmplitude: 0.3,
		BurstProb:        0.2,
		Seed:             1,
	}
}
