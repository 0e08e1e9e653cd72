// Command lwfd is the lightwave fabric daemon: it owns a simulated superpod
// fabric (48 Palomar OCSes plus the cube inventory) and serves the ctlrpc
// control protocol on a TCP address for cmd/lwfctl and other tooling.
//
// lwfd serves one pod's fabric and nothing else. The DCN
// topology-engineering loop runs on cmd/lwfleetd (-te-epoch); here
// te-status answers that the loop is disabled.
//
// Link telemetry enters through the observe-ber method (`lwfctl
// observe-ber`): each pre-FEC BER sample feeds the fabric's per-link
// detector, and a reading above the KP4 threshold writes an Error record.
// lwfd has no fault injector; chaos-inject answers "chaos injection
// disabled", and fleet fault drills run on lwfleetd -chaos.
//
// With -state-dir the daemon journals every mutating command it executes
// (compose, destroy, ensure, reshape, cube and link maintenance), refused
// ones included, to a write-ahead log (internal/wal) before the response
// is written. A snapshot holds the fabric's state — cubes, per-OCS failed
// ports, spare-port remaps and live cross-connects, slices — with the LSN
// of the last command that state holds. On restart the daemon imports
// that state into a freshly built fabric and re-executes only the
// commands journaled after it. Without the flag nothing touches disk and
// behavior is unchanged.
//
// Usage:
//
//	lwfd -addr 127.0.0.1:7600 -cubes 64 [-metrics-addr 127.0.0.1:7680] [-state-dir /var/lib/lwfd]
package main

import (
	"flag"
	"fmt"

	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/daemon"
	"lightwave/internal/wal"
)

func main() {
	f := flags(flag.CommandLine)
	flag.Parse()
	daemon.Main("lwfd", f, f.Validate, compose)
}

// flags declares lwfd's command line on fs: the flags both daemons share.
func flags(fs *flag.FlagSet) *daemon.Flags {
	f := new(daemon.Flags)
	f.Register(fs, "127.0.0.1:7600", "installed elemental cubes (1-64)")
	return f
}

// compose builds the fabric and its server on the shared daemon skeleton.
func compose(d *daemon.Daemon) (*ctlrpc.Server, error) {
	f := d.Flags
	cfg, err := daemon.PodConfig(f.Cubes, f.Transceiver, d.Reg, d.Log)
	if err != nil {
		return nil, err
	}
	fabric, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building fabric: %w", err)
	}
	d.Log.Info("fabric", "cubes", f.Cubes, "transceiver", cfg.Transceiver.Name)

	srv := ctlrpc.NewServer(fabric)
	// ctl_requests_total / ctl_inflight / ctl_request_latency_seconds ride
	// the same registry as the fabric metrics.
	srv.SetMetrics(d.Reg)

	// Durable state: import the snapshot's fabric state into the fresh
	// fabric, replay the journaled tail after it, then journal every
	// mutating command from here on. compose runs before the listener
	// opens, so no client observes a half-recovered fabric.
	if store := d.Store; store != nil {
		j, applied, failed, err := store.Attach(wal.RecordCommand, srv)
		if err != nil {
			return nil, fmt.Errorf("lwfd: restoring fabric: %w", err)
		}
		if applied+failed > 0 {
			d.Log.Info("replayed commands", "dir", f.StateDir, "applied", applied, "refused", failed, "lsn", store.Log().LastLSN())
		}
		store.EndRecovery()
		srv.SetJournal(j)
		srv.SetWAL(store)
	}
	return srv, nil
}
