package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
	"lightwave/internal/ocs"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
	"lightwave/internal/wal"
)

// waitLimit bounds every convergence wait; a wait that hits it is a
// failed operation.
const waitLimit = 5 * time.Second

// fleetRig is the cmd/lwfleetd composition built in-process: real
// core.Fabric pods behind a fleet.Manager, served by a ctlrpc.FleetServer
// on a loopback TCP listener, journaling to a real wal.Store (fsync on)
// when durable. One telemetry.Registry is passed to every layer so the
// traced run can read their counters.
type fleetRig struct {
	reg     *telemetry.Registry
	fabrics []*core.Fabric
	mgr     *fleet.Manager
	store   *wal.Store
	dir     string
	clients []*ctlrpc.Client
	srv     server
}

// server runs one ctlrpc server on a loopback TCP listener.
type server struct {
	stop   context.CancelFunc
	served chan error
}

// start serves on 127.0.0.1:0 and returns the address.
func (s *server) start(serve func(context.Context, net.Listener) error) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop, s.served = cancel, make(chan error, 1)
	go func() { s.served <- serve(ctx, lis) }()
	return lis.Addr().String(), nil
}

// shutdown stops the server and waits until every connection has drained.
// Safe to call twice.
func (s *server) shutdown() error {
	if s.stop == nil {
		return nil
	}
	s.stop()
	s.stop = nil
	return <-s.served
}

// dial opens n client connections to addr.
func dial(addr string, n int) ([]*ctlrpc.Client, error) {
	var out []*ctlrpc.Client
	for i := 0; i < n; i++ {
		c, err := ctlrpc.Dial(addr, waitLimit)
		if err != nil {
			for _, prev := range out {
				prev.Close()
			}
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// newFleetRig builds the composition in the order cmd/lwfleetd does: store,
// manager and pods, server, then dials conns clients. sm, when non-nil,
// installs the traced run's timing decorators at the Backend and Journal
// seams.
func newFleetRig(e *env, durable bool, conns int, sm *seams) (*fleetRig, error) {
	r := &fleetRig{reg: telemetry.NewRegistry()}
	var journal fleet.Journal
	if durable {
		dir, err := os.MkdirTemp(e.stateRoot, "fleet-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		r.store, err = wal.OpenStore(dir, wal.Options{Metrics: r.reg})
		if err != nil {
			r.close()
			return nil, err
		}
		journal = r.store
		if sm != nil {
			journal = &timedJournal{next: r.store, s: sm, ln: sm.tr.newLane()}
		}
	}
	r.mgr = fleet.NewManager(fleet.Options{Metrics: r.reg, Journal: journal, Seed: e.seed})
	for i := 0; i < numPods; i++ {
		f, err := newFabric(r.reg)
		if err != nil {
			r.close()
			return nil, err
		}
		r.fabrics = append(r.fabrics, f)
		var b fleet.Backend = fleet.NewFabricBackend(f, nil)
		if sm != nil {
			b = &timedBackend{next: b, pod: podName(i), s: sm, ln: sm.tr.newLane()}
		}
		if err := r.mgr.AddPod(podName(i), b); err != nil {
			r.close()
			return nil, err
		}
	}
	srv := ctlrpc.NewFleetServer(r.mgr)
	srv.SetMetrics(r.reg)
	if r.store != nil {
		srv.SetWAL(ctlrpc.StoreWALProvider{Store: r.store})
	}
	addr, err := r.srv.start(srv.Serve)
	if err != nil {
		r.close()
		return nil, err
	}
	if r.clients, err = dial(addr, conns); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func newFabric(reg *telemetry.Registry) (*core.Fabric, error) {
	cfg := core.DefaultConfig(cubesPerPod)
	cfg.Metrics = reg
	return core.New(cfg)
}

// quiesce closes the clients, the server and the manager — the daemons'
// shutdown order — leaving fabrics and store for the output checks. Safe
// to call twice.
func (r *fleetRig) quiesce() error {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = nil
	err := r.srv.shutdown()
	if r.mgr != nil {
		r.mgr.Close()
	}
	return err
}

// close quiesces the rig, closes the store, removes the state directory
// and reports the first error.
func (r *fleetRig) close() error {
	first := r.quiesce()
	if r.store != nil {
		if err := r.store.Close(); err != nil && first == nil {
			first = err
		}
		r.store = nil
	}
	if r.dir != "" {
		if err := os.RemoveAll(r.dir); err != nil && first == nil {
			first = err
		}
		r.dir = ""
	}
	return first
}

// waitConverged polls fleet-status over RPC until every pod reports
// Converged with no OCS drain left.
func (r *fleetRig) waitConverged() error {
	deadline := time.Now().Add(waitLimit)
	for {
		st, err := r.clients[0].FleetStatus()
		if err != nil {
			return err
		}
		pending := ""
		for _, p := range st.Pods {
			if !p.Converged || len(p.DrainedOCS) > 0 || p.Quarantined {
				pending = p.Name
			}
		}
		if pending == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pod %s not converged after %s", pending, waitLimit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// checkFabric verifies the paper's hardware invariants on one quiescent
// fabric: every OCS cross-connect map is a bijection (§3.2), no port
// carries two slices, and every live circuit belongs to exactly one
// slice.
func checkFabric(pod string, f *core.Fabric) []error {
	var errs []error
	type port struct {
		o topo.OCSID
		p ocs.PortID
	}
	live := 0
	for o := topo.OCSID(0); o < topo.NumOCS; o++ {
		sw, err := f.Switch(o)
		if err != nil {
			return append(errs, err)
		}
		north, south := map[ocs.PortID]bool{}, map[ocs.PortID]bool{}
		for _, c := range sw.Circuits() {
			if north[c.North] || south[c.South] {
				errs = append(errs, fmt.Errorf("%s ocs %d: circuit %d→%d breaks the bijection", pod, o, c.North, c.South))
			}
			north[c.North], south[c.South] = true, true
			live++
		}
	}
	owner := map[port]string{}
	claimed := 0
	for _, sl := range f.Slices() {
		for _, c := range sl.Circuits {
			k := port{c.OCS, f.PortFor(c.OCS, c.North)}
			if prev, dup := owner[k]; dup {
				errs = append(errs, fmt.Errorf("%s ocs %d port %d shared by slices %q and %q", pod, c.OCS, k.p, prev, sl.Name))
			}
			owner[k] = sl.Name
			claimed++
			sw, _ := f.Switch(c.OCS)
			if got, ok := sw.ConnectionOf(k.p); !ok || got != f.PortFor(c.OCS, c.South) {
				errs = append(errs, fmt.Errorf("%s slice %q: circuit on ocs %d port %d not established", pod, sl.Name, c.OCS, k.p))
			}
		}
	}
	if live != claimed {
		errs = append(errs, fmt.Errorf("%s: %d live circuits but slices claim %d", pod, live, claimed))
	}
	return errs
}

// checkFabrics runs checkFabric over every pod. Call it only after the
// manager is closed: core.Fabric is not safe for concurrent use.
func (r *fleetRig) checkFabrics() []error {
	var errs []error
	for i, f := range r.fabrics {
		errs = append(errs, checkFabric(podName(i), f)...)
	}
	return errs
}

// counterOf reads one registry counter.
func counterOf(reg *telemetry.Registry, name string) float64 {
	return float64(reg.Counter(name).Value())
}

// digestSurvivesReopen quiesces the rig and, when it is durable, checks
// that the intent store hashes the same before the state directory is
// closed and after it is reopened — what was acknowledged is what a
// restart would recover.
func (r *fleetRig) digestSurvivesReopen() []error {
	if err := r.quiesce(); err != nil {
		return []error{err}
	}
	if r.store == nil {
		return nil
	}
	before, err := r.store.FleetDigest()
	if err != nil {
		return []error{err}
	}
	err = r.store.Close()
	r.store = nil
	if err != nil {
		return []error{err}
	}
	if r.store, err = wal.OpenStore(r.dir, wal.Options{}); err != nil {
		return []error{err}
	}
	after, err := r.store.FleetDigest()
	if err != nil {
		return []error{err}
	}
	if before != after {
		return []error{fmt.Errorf("fleet digest %s before close, %s after reopen", before, after)}
	}
	return nil
}

// fabricRig is the cmd/lwfd composition: a ctlrpc.Server over one
// core.Fabric on a loopback listener. No WAL, fleet or reconciler.
type fabricRig struct {
	reg     *telemetry.Registry
	fabric  *core.Fabric
	srv     server
	clients []*ctlrpc.Client
}

func newFabricRig(conns int) (*fabricRig, error) {
	r := &fabricRig{reg: telemetry.NewRegistry()}
	var err error
	if r.fabric, err = newFabric(r.reg); err != nil {
		return nil, err
	}
	srv := ctlrpc.NewServer(r.fabric)
	srv.SetMetrics(r.reg)
	addr, err := r.srv.start(srv.Serve)
	if err != nil {
		return nil, err
	}
	if r.clients, err = dial(addr, conns); err != nil {
		r.srv.shutdown()
		return nil, err
	}
	return r, nil
}

func (r *fabricRig) close() error {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = nil
	return r.srv.shutdown()
}

// unknownResponses sums the responses the clients dropped for carrying an
// id they never issued; anything but 0 is a framing bug.
func unknownResponses(clients []*ctlrpc.Client) float64 {
	var n int64
	for _, c := range clients {
		n += c.UnknownResponses()
	}
	return float64(n)
}
