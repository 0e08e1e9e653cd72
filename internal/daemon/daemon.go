// Package daemon is the one lifecycle cmd/lwfd and cmd/lwfleetd share: the
// common flags and their validation, registry and alert wiring, the
// -state-dir open → recovery bracket → close, the metrics listener, one
// superpod fabric's configuration, and a single boot and shutdown order. A
// daemon's main parses flags and hands Start a compose function that
// builds its state, fills a ctlrpc.Server and registers its background
// loops and closers; nothing here knows which daemon it is running.
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

	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/optics"
	"lightwave/internal/telemetry"
	"lightwave/internal/wal"
)

// Flags are the flags both daemons define.
type Flags struct {
	Addr, MetricsAddr string
	Cubes             int
	Transceiver       string
	StateDir          string
	StateSnapshot     time.Duration
}

// Register declares the shared flags; the listen default and the -cubes
// help string, which differ per daemon, are the caller's.
func (f *Flags) Register(fs *flag.FlagSet, addr, cubesHelp string) {
	fs.StringVar(&f.Addr, "addr", addr, "listen address")
	fs.IntVar(&f.Cubes, "cubes", 64, cubesHelp)
	fs.StringVar(&f.Transceiver, "transceiver", "2x200G-bidi-CWDM4", "transceiver generation")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "HTTP /metrics and /debug/pprof listen address (disabled when empty)")
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
	if f.StateSnapshot < 0 {
		return fmt.Errorf("-state-snapshot must not be negative, got %s", f.StateSnapshot)
	}
	return nil
}

// PodConfig is one superpod fabric's configuration as both daemons build
// it: the default plant for cubes installed cubes with the named
// transceiver generation, reporting to reg and alerts.
func PodConfig(cubes int, transceiver string, reg *telemetry.Registry, alerts telemetry.AlertSink) (core.Config, error) {
	gen, err := optics.GenerationByName(transceiver)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(cubes)
	cfg.Transceiver, cfg.Metrics, cfg.Alerts = gen, reg, alerts
	return cfg, nil
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
