package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lightwave/internal/ctlrpc"
	"lightwave/internal/daemon"
)

// lwfd's durable path — JournalCommand on every mutating RPC,
// SnapshotCommands into checkpoints, ReplayCommands through ApplyCommand
// at boot — is pinned the way wal.TestRestartEquivalence pins the fleet
// daemon's: a scripted mutation stream runs against a journaled daemon
// that is stopped and reopened from its state directory, and the reopened
// daemon must answer status and every slice query byte-for-byte like a
// daemon that ran the same stream without interruption.

type step struct {
	method string
	params any
}

func composeP(name string, shape [3]int, cubes ...int) step {
	return step{ctlrpc.MethodCompose, ctlrpc.ComposeParams{Name: name, Shape: shape, Cubes: cubes}}
}

func cubeP(method string, cube int) step { return step{method, ctlrpc.CubeParams{Cube: cube}} }

// script covers every journaled method kind the issue names: compose,
// ensure (new slice, and a shape change on an existing one), reshape, a
// cube failure that swaps a spare into a live slice, install, repair, and
// a destroy, so replay has to reproduce placement, health and inventory.
var script = []step{
	composeP("train", [3]int{4, 4, 16}, 0, 1, 2, 3),
	composeP("serve", [3]int{4, 4, 8}, 4, 5),
	{ctlrpc.MethodEnsure, ctlrpc.EnsureParams{Name: "batch", Shape: [3]int{4, 4, 4}, Cubes: []int{6}}},
	{ctlrpc.MethodReshape, ctlrpc.ReshapeParams{Name: "train", Shape: [3]int{4, 8, 8}}},
	cubeP(ctlrpc.MethodFailCube, 1), // train swaps in a free cube
	cubeP(ctlrpc.MethodInstallCube, 12),
	cubeP(ctlrpc.MethodInstallCube, 13),
	{ctlrpc.MethodEnsure, ctlrpc.EnsureParams{Name: "serve", Shape: [3]int{4, 8, 4}}},
	composeP("late", [3]int{4, 4, 8}, 12, 13),
	cubeP(ctlrpc.MethodFailCube, 9), // a free cube: no slice affected
	cubeP(ctlrpc.MethodRepairCube, 1),
	{ctlrpc.MethodDestroy, ctlrpc.NameParams{Name: "batch"}},
	composeP("again", [3]int{4, 4, 4}, 1),
}

// checkpointAfter is the script index after which the mid-stream variants
// force a checkpoint, leaving a journaled tail behind the snapshot.
const checkpointAfter = 6

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
		if err := l.c.CallContext(context.Background(), st.method, st.params, nil); err != nil {
			t.Fatalf("%s %+v: %v", st.method, st.params, err)
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
	if len(want) != 5 { // status + train, serve, late, again
		t.Fatalf("reference run ended with %d answers: %s", len(want), want)
	}

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

			got := startLwfd(t, dir).answers(t)
			if len(got) != len(want) {
				t.Fatalf("reopened daemon gave %d answers, want %d:\n%s", len(got), len(want), got)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("answer %d diverged after restart:\n got %s\nwant %s", i, got[i], want[i])
				}
			}
		})
	}
}
