package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lightwave/internal/ctlrpc"
	"lightwave/internal/daemon"
)

// lwfd's durable path — a journaled command for every mutating RPC whose
// handler ran, the server's Export into checkpoints, and Attach's import
// plus tail replay through the server's Replay at boot — is pinned the way
// wal.TestRestartEquivalence pins the fleet daemon's: a scripted mutation
// stream runs against a journaled daemon that is stopped and reopened from
// its state directory, and the reopened daemon must answer status and
// every slice query byte-for-byte like a daemon that ran the same stream
// without interruption, and must hand out the same spare port to one more
// link repair.

type step struct {
	method string
	params any
	// refused is the error the step must answer with; a refused call is
	// journaled all the same, for whatever it changed.
	refused string
}

func composeP(name string, shape [3]int, cubes ...int) step {
	return step{method: ctlrpc.MethodCompose, params: ctlrpc.ComposeParams{Name: name, Shape: shape, Cubes: cubes}}
}

func cubeP(method string, cube int) step {
	return step{method: method, params: ctlrpc.CubeParams{Cube: cube}}
}

// repairLinkP repatches cube 1's fibers on OCS 3 onto a spare port.
var repairLinkP = step{method: ctlrpc.MethodRepairLink, params: ctlrpc.RepairLinkParams{OCS: 3, Cube: 1}}

// script covers every journaled method kind: compose, ensure (new slice,
// and a shape change on an existing one), reshape, a link repair that
// moves a live slice onto a spare port, a cube failure that swaps a spare
// into a live slice, install, repair, a destroy, and a cube failure with
// no spare left, which the fabric refuses after marking the cube failed —
// so replay has to reproduce placement, health, inventory and port map.
var script = []step{
	composeP("train", [3]int{4, 4, 16}, 0, 1, 2, 3),
	composeP("serve", [3]int{4, 4, 8}, 4, 5),
	{method: ctlrpc.MethodEnsure, params: ctlrpc.EnsureParams{Name: "batch", Shape: [3]int{4, 4, 4}, Cubes: []int{6}}},
	repairLinkP,
	{method: ctlrpc.MethodReshape, params: ctlrpc.ReshapeParams{Name: "train", Shape: [3]int{4, 8, 8}}},
	cubeP(ctlrpc.MethodFailCube, 1), // train swaps in a free cube
	cubeP(ctlrpc.MethodInstallCube, 12),
	cubeP(ctlrpc.MethodInstallCube, 13),
	{method: ctlrpc.MethodEnsure, params: ctlrpc.EnsureParams{Name: "serve", Shape: [3]int{4, 8, 4}}},
	composeP("late", [3]int{4, 4, 8}, 12, 13),
	cubeP(ctlrpc.MethodFailCube, 9), // a free cube: no slice affected
	cubeP(ctlrpc.MethodRepairCube, 1),
	{method: ctlrpc.MethodDestroy, params: ctlrpc.NameParams{Name: "batch"}},
	composeP("again", [3]int{4, 4, 4}, 1),
	composeP("fill", [3]int{4, 4, 16}, 6, 8, 10, 11), // no free cube left
	{method: ctlrpc.MethodFailCube, params: ctlrpc.CubeParams{Cube: 12}, refused: "no healthy free cube"},
	// Freeing late shows cube 12's failure in status: 13 is free, 12 not.
	{method: ctlrpc.MethodDestroy, params: ctlrpc.NameParams{Name: "late"}},
}

// checkpointAfter is the script index after which the mid-stream variants
// force a checkpoint, leaving a journaled tail behind the snapshot.
const checkpointAfter = 7

type lwfd struct {
	d *daemon.Daemon
	c *ctlrpc.Client
	// stop cancels the daemon's context: the SIGTERM path.
	stop context.CancelFunc
}

func startLwfd(t *testing.T, stateDir string) *lwfd {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	f := &daemon.Flags{
		Addr: "127.0.0.1:0", Cubes: 12, Transceiver: "2x200G-bidi-CWDM4",
		StateDir: stateDir, StateSnapshot: 0, // checkpoints only where the test says
	}
	d, err := daemon.Start(ctx, "lwfd", f, compose)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	c, err := ctlrpc.Dial(d.Addr().String(), 2*time.Second)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	l := &lwfd{d: d, c: c, stop: cancel}
	t.Cleanup(l.shutdown)
	return l
}

// shutdown stops the daemon through the shared shutdown path (final
// checkpoint included). Safe to call twice.
func (l *lwfd) shutdown() {
	if l.d == nil {
		return
	}
	l.c.Close()
	l.stop()
	_ = l.d.Wait()
	l.d = nil
}

func (l *lwfd) run(t *testing.T, steps []step) {
	t.Helper()
	for _, st := range steps {
		err := l.c.CallContext(context.Background(), st.method, st.params, nil)
		if st.refused == "" && err != nil || st.refused != "" && (err == nil || !strings.Contains(err.Error(), st.refused)) {
			t.Fatalf("%s %+v: %v, want refusal %q", st.method, st.params, err, st.refused)
		}
	}
}

// answers returns the raw status result followed by the raw slice result
// of every slice status lists.
func (l *lwfd) answers(t *testing.T) [][]byte {
	t.Helper()
	var status json.RawMessage
	if err := l.c.CallContext(context.Background(), ctlrpc.MethodStatus, nil, &status); err != nil {
		t.Fatal(err)
	}
	var st ctlrpc.StatusResult
	if err := json.Unmarshal(status, &st); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{status}
	for _, name := range st.Slices {
		var sl json.RawMessage
		if err := l.c.CallContext(context.Background(), ctlrpc.MethodSlice, ctlrpc.NameParams{Name: name}, &sl); err != nil {
			t.Fatal(err)
		}
		out = append(out, sl)
	}
	return out
}

// probe runs one more link repair on the scripted pair and returns the
// spare port it got: neither status nor slice shows the port map, but the
// next spare handed out depends on it.
func (l *lwfd) probe(t *testing.T) int {
	t.Helper()
	var res ctlrpc.RepairLinkResult
	if err := l.c.CallContext(context.Background(), repairLinkP.method, repairLinkP.params, &res); err != nil {
		t.Fatal(err)
	}
	return res.SparePort
}

// copyDir snapshots a state directory as a crash would leave it: every
// acknowledged command is already fsynced, so the files on disk are the
// durable truth even though the daemon never shut down.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestRestartEquivalence(t *testing.T) {
	ref := startLwfd(t, "")
	ref.run(t, script)
	want := ref.answers(t)
	if len(want) != 5 { // status + train, serve, again, fill
		t.Fatalf("reference run ended with %d answers: %s", len(want), want)
	}
	wantSpare := ref.probe(t)

	for _, tc := range []struct {
		name string
		// checkpoint forces a snapshot mid-stream; crash reopens a copy of
		// the state dir taken while the daemon was still up (no shutdown
		// snapshot) instead of stopping it through the shutdown path.
		checkpoint, crash bool
	}{
		{"clean shutdown, snapshot only", true, false},
		{"crash, log tail only", false, true},
		{"crash, snapshot plus tail", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := startLwfd(t, dir)
			l.run(t, script[:checkpointAfter])
			if tc.checkpoint {
				if err := l.d.Store.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			l.run(t, script[checkpointAfter:])
			if tc.crash {
				dir = copyDir(t, dir)
			}
			l.shutdown()

			snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
			if err != nil {
				t.Fatal(err)
			}
			if (len(snaps) > 0) != tc.checkpoint {
				t.Fatalf("state dir holds snapshots %v, checkpoint=%t", snaps, tc.checkpoint)
			}

			// Restart twice: the first restart's shutdown checkpoint holds a
			// recovered fabric, and the second boot must replay nothing
			// that checkpoint already holds.
			var reopened *lwfd
			for restart := 1; restart <= 2; restart++ {
				reopened = startLwfd(t, dir)
				got := reopened.answers(t)
				if len(got) != len(want) {
					t.Fatalf("restart %d gave %d answers, want %d:\n%s", restart, len(got), len(want), got)
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("answer %d diverged after restart %d:\n got %s\nwant %s", i, restart, got[i], want[i])
					}
				}
				if restart == 1 {
					reopened.shutdown()
				}
			}
			if spare := reopened.probe(t); spare != wantSpare {
				t.Errorf("link repair after restart got spare port %d, want %d", spare, wantSpare)
			}
		})
	}
}

// TestNoChaosInjection: lwfd has no fault injector and no TE loop. -chaos
// and -te-epoch are not among its flags, chaos-inject answers
// ErrChaosDisabled, te-status answers disabled, and observe-ber is the
// daemon's one BER intake, refusing a sample that is not a probability.
func TestNoChaosInjection(t *testing.T) {
	for _, name := range []string{"-chaos", "-te-epoch"} {
		fs := flag.NewFlagSet("lwfd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags(fs)
		if err := fs.Parse([]string{name, "1s"}); err == nil || !strings.Contains(err.Error(), "not defined: "+name) {
			t.Fatalf("%s parsed: err = %v", name, err)
		}
	}

	l := startLwfd(t, "")
	if st, err := l.c.TEStatus(); err != nil || st.Enabled {
		t.Fatalf("te-status = %+v, %v; want disabled", st, err)
	}
	_, err := l.c.ChaosInject(ctlrpc.ChaosInjectParams{Kind: "ber-degrade", TrunkA: 0, TrunkB: 1, BER: 1e-3, DurationSeconds: 1})
	if err == nil || !strings.HasSuffix(err.Error(), ctlrpc.ErrChaosDisabled.Error()) {
		t.Fatalf("chaos-inject: err = %v, want %v", err, ctlrpc.ErrChaosDisabled)
	}
	if st, err := l.c.ChaosStatus(); err != nil || st.Enabled {
		t.Fatalf("chaos-status = %+v, %v; want disabled", st, err)
	}
	if anom, err := l.c.ObserveBER(3, 1, 5e-4); err != nil || !anom {
		t.Fatalf("observe-ber above KP4: anomalous %t, err %v", anom, err)
	}
	if _, err := l.c.ObserveBER(3, 1, 5); err == nil {
		t.Fatal("observe-ber accepted a BER of 5")
	}
}
