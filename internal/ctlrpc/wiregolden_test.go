package ctlrpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lightwave/internal/chaos"
	"lightwave/internal/core"
	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/te"
	"lightwave/internal/telemetry"
	"lightwave/internal/wal"
)

// The wire goldens pin the raw response line of every method of both
// constructors — known and unknown methods, malformed params, and each
// optional provider both absent and attached — as committed transcripts
// under testdata/wire/. They were recorded against the two-server
// implementation and must keep passing unchanged: any dispatch refactor
// has to answer byte-for-byte what the old servers answered.
var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire/*.golden from the running implementation")

type fixedTE struct{}

func (fixedTE) Status() te.Status {
	return te.Status{Blocks: 8, Uplinks: 14, Epoch: 3, Reconfigs: 1, Stages: 2,
		TrunksMoved: 5, LastGain: 0.125, MinResidualFraction: 0.75, LastReason: "gain", CurrentTrunks: 56}
}

type fixedChaos struct{}

func (fixedChaos) ApplyLive(ev chaos.Event) (string, error) {
	if ev.Kind == "boom" {
		return "", errors.New("provider rejected boom")
	}
	return string(ev.Kind) + " " + ev.Pod, nil
}

func (fixedChaos) Status() chaos.InjectorStatus {
	return chaos.InjectorStatus{InjectedTotal: 2, ActiveFaults: 1, LastFault: "pod-loss p0"}
}

type fixedSched struct{}

func (fixedSched) Policy() string { return "reconfigurable" }

func (fixedSched) Pods() []string { return []string{"p0", "p1"} }

func (fixedSched) Stats() sched.SchedulerStats {
	return sched.SchedulerStats{QueueDepth: 1, RunningJobs: 2, Submitted: 3, Started: 2, Utilization: 0.5, Now: 120}
}

func (fixedSched) Submit(spec sched.JobSpec) (int, bool, error) {
	if spec.Cubes <= 0 {
		return 0, false, errors.New("sched: job needs at least one cube")
	}
	return 7, true, nil
}

type fixedWAL struct{}

func (fixedWAL) Status() wal.StoreStatus {
	return wal.StoreStatus{
		Status: wal.Status{Dir: "/state", LastLSN: 42, SnapshotLSN: 40, Segments: 1,
			TotalBytes: 4096, Appends: 42, Fsyncs: 21},
		FleetPods: 2, FleetSlices: 3, FleetDigest: "abc123"}
}

// refusingJournal fails every command whose params mention "nojournal".
type refusingJournal struct{}

func (refusingJournal) Append(p []byte) (uint64, error) {
	if _, params, err := decodeCommand(p); err != nil || bytes.Contains(params, []byte("nojournal")) {
		return 0, errors.New("disk full")
	}
	return 1, nil
}

// wireStep is one line sent to the server, or — when settle is set — a
// pause until the fleet manager has reconciled everything sent so far, so
// fleet-status answers are a function of the script alone.
type wireStep struct {
	send   string
	settle bool
}

func sends(lines ...string) []wireStep {
	out := make([]wireStep, len(lines))
	for i, l := range lines {
		out[i] = wireStep{send: l}
	}
	return out
}

// fabricScript exercises every method a fabric server can be asked for.
// IDs are deliberately non-sequential in places: the response must echo
// whatever the request carried.
func fabricScript() []wireStep {
	return sends(
		`{"id":1,"method":"status"}`,
		`{"id":2,"method":"compose","params":{"name":"job","shape":[4,4,16],"cubes":[0,1,2,3]}}`,
		`{"id":3,"method":"compose","params":{"name":"job","shape":[4,4,16],"cubes":[0,1,2,3]}}`,
		`{"id":4,"method":"compose","params":{"name":7}}`,
		`{"id":5,"method":"status"}`,
		`{"id":6,"method":"slice","params":{"name":"job"}}`,
		`{"id":7,"method":"slice","params":{"name":"ghost"}}`,
		`{"id":8,"method":"slice","params":[1]}`,
		`{"id":9,"method":"slice"}`,
		`{"id":10,"method":"ensure","params":{"name":"job","shape":[4,4,16]}}`,
		`{"id":11,"method":"ensure","params":{"name":"e2","shape":[4,4,4],"cubes":[4]}}`,
		`{"id":12,"method":"ensure","params":"x"}`,
		`{"id":13,"method":"reshape","params":{"name":"job","shape":[4,8,8]}}`,
		`{"id":14,"method":"reshape","params":{"name":"ghost","shape":[4,4,4]}}`,
		`{"id":15,"method":"reshape","params":{"shape":"bad"}}`,
		`{"id":16,"method":"fail-cube","params":{"cube":1}}`,
		`{"id":17,"method":"fail-cube","params":{"cube":99}}`,
		`{"id":18,"method":"fail-cube","params":{"cube":"one"}}`,
		`{"id":19,"method":"repair-cube","params":{"cube":1}}`,
		`{"id":20,"method":"repair-cube","params":{"cube":1}}`,
		`{"id":21,"method":"repair-cube","params":[]}`,
		`{"id":22,"method":"install-cube","params":{"cube":8}}`,
		`{"id":23,"method":"install-cube","params":{"cube":8}}`,
		`{"id":24,"method":"install-cube","params":true}`,
		`{"id":25,"method":"repair-link","params":{"ocs":0,"cube":0}}`,
		`{"id":26,"method":"repair-link","params":{"ocs":999,"cube":0}}`,
		`{"id":27,"method":"repair-link","params":{"ocs":"a"}}`,
		`{"id":28,"method":"observe-ber","params":{"ocs":0,"port":0,"ber":1e-9}}`,
		`{"id":29,"method":"observe-ber","params":{"ocs":0,"port":0,"ber":0.5}}`,
		`{"id":30,"method":"observe-ber","params":{"ber":"high"}}`,
		`{"id":31,"method":"metrics"}`,
		`{"id":32,"method":"te-status"}`,
		`{"id":33,"method":"chaos-status"}`,
		`{"id":34,"method":"chaos-inject","params":{"kind":"ber-degrade","ocs":0,"port":1,"ber":0.001}}`,
		`{"id":35,"method":"chaos-inject","params":{"kind":"boom"}}`,
		`{"id":36,"method":"chaos-inject","params":{"kind":5}}`,
		`{"id":37,"method":"wal-status"}`,
		`{"id":38,"method":"compose","params":{"name":"nojournal","shape":[4,4,4],"cubes":[7]}}`,
		`{"id":39,"method":"destroy","params":{"name":"ghost"}}`,
		`{"id":40,"method":"destroy","params":{"name":"ghost","ifPresent":true}}`,
		`{"id":41,"method":"destroy","params":{"name":"e2"}}`,
		`{"id":42,"method":"destroy","params":{"name":[]}}`,
		`{"id":43,"method":"status"}`,
		// Methods the fabric daemon does not serve, and junk.
		`{"id":44,"method":"fleet-status"}`,
		`{"id":45,"method":"apply-intent","params":{"pod":"p0"}}`,
		`{"id":46,"method":"sched-status"}`,
		`{"id":47,"method":"sched-submit","params":{"cubes":1,"durationSeconds":60}}`,
		`{"id":48,"method":"watch"}`,
		`{"id":49,"method":"no-such-method"}`,
		`{"id":50,"method":""}`,
		`{"id":51}`,
		`{"method":"status","id":52}`,
		`{"id":53,"method":"status","params":null}`,
		`{"id":54,"method":"sta\u0074us"}`,
		`not json`,
		`{"id":"x","method":"status"}`,
		`{"id":18446744073709551615,"method":"status"}`,
		`{"id":55,"method":"slice","params":{"name":"`+strings.Repeat("x", 600)+`"}}`,
	)
}

// fleetScript exercises every method a fleet server can be asked for.
func fleetScript() []wireStep {
	steps := sends(
		`{"id":1,"method":"fleet-status"}`,
		`{"id":2,"method":"apply-intent","params":{"pod":"p0","slices":[{"name":"a","shape":[4,4,4]},{"name":"b","shape":[4,4,8],"cubes":[1,2]}]}}`,
		`{"id":3,"method":"apply-intent","params":{"pod":"p1","slices":[{"name":"c","shape":[4,4,4]}]}}`,
	)
	steps = append(steps, wireStep{settle: true})
	steps = append(steps, sends(
		`{"id":4,"method":"fleet-status"}`,
		`{"id":5,"method":"apply-intent","params":{"pod":"p0","slices":[{"name":"a","remove":true}]}}`,
		`{"id":6,"method":"apply-intent","params":{"pod":"p1","replace":true,"slices":[{"name":"d","shape":[4,4,4]}]}}`,
		`{"id":7,"method":"apply-intent","params":{"pod":"p1","replace":true,"slices":[{"name":"d","remove":true}]}}`,
		`{"id":8,"method":"apply-intent","params":{"slices":[]}}`,
		`{"id":9,"method":"apply-intent","params":{"pod":"ghost","slices":[{"name":"x","shape":[4,4,4]}]}}`,
		`{"id":10,"method":"apply-intent","params":{"pod":"p0","slices":[{"name":"x","shape":[3,3,3]}]}}`,
		`{"id":11,"method":"apply-intent","params":{"pod":7}}`,
		`{"id":12,"method":"apply-intent"}`,
	)...)
	steps = append(steps, wireStep{settle: true})
	steps = append(steps, sends(
		`{"id":13,"method":"fleet-status"}`,
		`{"id":14,"method":"drain","params":{"pod":"p0","ocs":3}}`,
		`{"id":15,"method":"drain","params":{"pod":"p1"}}`,
		`{"id":16,"method":"drain","params":{"pod":"ghost"}}`,
		`{"id":17,"method":"drain","params":{"pod":"ghost","ocs":1}}`,
		`{"id":18,"method":"drain","params":{"ocs":"x"}}`,
	)...)
	steps = append(steps, wireStep{settle: true})
	steps = append(steps, sends(
		`{"id":19,"method":"fleet-status"}`,
		`{"id":20,"method":"undrain","params":{"pod":"p0","ocs":3}}`,
		`{"id":21,"method":"undrain","params":{"pod":"p1"}}`,
		`{"id":22,"method":"undrain","params":{"pod":"ghost"}}`,
		`{"id":23,"method":"undrain","params":{"pod":"ghost","ocs":1}}`,
		`{"id":24,"method":"undrain","params":[]}`,
	)...)
	steps = append(steps, wireStep{settle: true})
	steps = append(steps, sends(
		`{"id":25,"method":"fleet-status"}`,
		`{"id":26,"method":"te-status"}`,
		`{"id":27,"method":"chaos-status"}`,
		`{"id":28,"method":"chaos-inject","params":{"kind":"pod-loss","pod":"p0"}}`,
		`{"id":29,"method":"chaos-inject","params":{"kind":"boom"}}`,
		`{"id":30,"method":"chaos-inject","params":{"kind":5}}`,
		`{"id":31,"method":"sched-status"}`,
		`{"id":32,"method":"sched-submit","params":{"cubes":2,"durationSeconds":600}}`,
		`{"id":33,"method":"sched-submit","params":{"cubes":0}}`,
		`{"id":34,"method":"sched-submit","params":{"cubes":"two"}}`,
		`{"id":35,"method":"wal-status"}`,
		// Methods the fleet daemon does not serve, and junk.
		`{"id":36,"method":"status"}`,
		`{"id":37,"method":"compose","params":{"name":"job","shape":[4,4,4],"cubes":[0]}}`,
		`{"id":38,"method":"metrics"}`,
		`{"id":39,"method":"slice","params":{"name":"a"}}`,
		`{"id":40,"method":"no-such-method"}`,
		`{"id":41}`,
		`{"method":"fleet-status","id":42}`,
		`not json`,
		`{"id":43,"method":"fleet-status","params":{"ignored":true}}`,
		`{"id":44,"method":"drain","params":{"pod":"`+strings.Repeat("x", 600)+`"}}`,
		// The watch upgrade comes last: the connection then carries only
		// the event stream, whose first line is the acknowledgement.
		`{"id":45,"method":"watch"}`,
	)...)
	return steps
}

func TestWireGolden(t *testing.T) {
	newFabric := func(t *testing.T) *core.Fabric {
		// No fabric registry: the distribution means in its exposition
		// depend on float summation order, which is not a wire property.
		f, err := core.New(core.DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	newManager := func(t *testing.T) *fleet.Manager {
		m := fleet.NewManager(fleet.Options{
			BaseBackoff:     time.Millisecond,
			MaxBackoff:      8 * time.Millisecond,
			QuarantineAfter: 3,
		})
		t.Cleanup(m.Close)
		for _, name := range []string{"p0", "p1"} {
			if err := m.AddPod(name, newMemBackend()); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	cases := []struct {
		name   string
		script []wireStep
		// build returns the server's Serve method and, for fleet servers,
		// the manager the settle steps poll.
		build func(t *testing.T) (func(context.Context, net.Listener) error, *fleet.Manager)
	}{
		{"fabric-bare", fabricScript(), func(t *testing.T) (func(context.Context, net.Listener) error, *fleet.Manager) {
			srv := NewServer(newFabric(t))
			srv.MaxRequestBytes = 512
			return srv.Serve, nil
		}},
		{"fabric-attached", fabricScript(), func(t *testing.T) (func(context.Context, net.Listener) error, *fleet.Manager) {
			srv := NewServer(newFabric(t))
			srv.MaxRequestBytes = 512
			srv.SetMetrics(telemetry.NewRegistry())
			srv.SetTE(fixedTE{})
			srv.SetChaos(fixedChaos{})
			srv.SetWAL(fixedWAL{})
			srv.SetJournal(refusingJournal{})
			return srv.Serve, nil
		}},
		{"fleet-bare", fleetScript(), func(t *testing.T) (func(context.Context, net.Listener) error, *fleet.Manager) {
			m := newManager(t)
			srv := NewFleetServer(m)
			srv.MaxRequestBytes = 512
			return srv.Serve, m
		}},
		{"fleet-attached", fleetScript(), func(t *testing.T) (func(context.Context, net.Listener) error, *fleet.Manager) {
			m := newManager(t)
			srv := NewFleetServer(m)
			srv.MaxRequestBytes = 512
			srv.SetMetrics(telemetry.NewRegistry())
			srv.SetTE(fixedTE{})
			srv.SetChaos(fixedChaos{})
			srv.SetSched(fixedSched{})
			srv.SetWAL(fixedWAL{})
			return srv.Serve, m
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serve, m := tc.build(t)
			got := runWireScript(t, serve, m, tc.script)
			path := filepath.Join("testdata", "wire", tc.name+".golden")
			if *updateWire {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire transcript diverged from %s:\n%s", path, firstDiff(got, want))
			}
		})
	}
}

// runWireScript serves on a loopback listener, plays the script over one
// raw connection strictly request-then-response, and returns the
// transcript ("> request" / "< response" lines).
func runWireScript(t *testing.T, serve func(context.Context, net.Listener) error, m *fleet.Manager, script []wireStep) []byte {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = serve(ctx, lis)
	}()
	defer func() {
		cancel()
		<-done
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	var out bytes.Buffer
	for _, st := range script {
		if st.settle {
			settleFleet(t, m)
			continue
		}
		if _, err := conn.Write([]byte(st.send + "\n")); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("no response to %q: %v", st.send, err)
		}
		out.WriteString("> " + st.send + "\n< ")
		out.Write(resp)
	}
	return out.Bytes()
}

// settleFleet waits until every pod has reconciled (converged, or parked
// drained) and the work queue is empty.
func settleFleet(t *testing.T, m *fleet.Manager) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.Status()
		settled := st.QueueDepth == 0
		for _, ps := range st.Pods {
			if !ps.Converged {
				settled = false
			}
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// firstDiff renders the first differing transcript line pair.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
