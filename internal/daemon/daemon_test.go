package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/wal"
)

func testFlags(stateDir string) *Flags {
	return &Flags{
		Addr: "127.0.0.1:0", Cubes: 4, Transceiver: "2x200G-bidi-CWDM4",
		StateDir: stateDir, StateSnapshot: time.Millisecond,
	}
}

func newServer(t *testing.T) *ctlrpc.Server {
	t.Helper()
	f, err := core.New(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	return ctlrpc.NewServer(f)
}

// command is a journaled command record as lwfd's server writes it: the
// format version, the method and "{}" as its params.
func command(method string) []byte {
	return append(append([]byte{1, byte(len(method))}, method...), 2, '{', '}')
}

// attach restores a fresh server's section as lwfd's compose does, and
// returns the server and the journal its commands go through.
func attach(t *testing.T, d *Daemon) (*ctlrpc.Server, wal.Journal) {
	t.Helper()
	srv := newServer(t)
	j, _, _, err := d.Store.Attach(wal.RecordCommand, srv)
	if err != nil {
		t.Fatal(err)
	}
	return srv, j
}

// countCommands reopens a state dir — which fails unless the previous
// owner really closed it — and counts the journaled commands.
func countCommands(t *testing.T, dir string) int {
	t.Helper()
	st, err := wal.OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopening state dir: %v", err)
	}
	defer st.Close()
	_, applied, failed, err := st.Attach(wal.RecordCommand, newServer(t))
	if err != nil {
		t.Fatal(err)
	}
	return applied + failed
}

// TestShutdownJoinsEveryLoopBeforeStoreCloses is the regression test for
// the two lifecycle bugs the hand-wired mains had: the periodic-checkpoint
// goroutine was never joined (a tick racing SIGTERM could checkpoint a
// closing store), and a loop could still be journaling when the store
// closed. With a 1 ms -state-snapshot the ticker fires throughout
// shutdown; a loop that journals once more after it saw the cancel must
// still find the store open, closers must run only after every loop
// returned, and nothing of the daemon may be running once Wait returns.
func TestShutdownJoinsEveryLoopBeforeStoreCloses(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var journaled atomic.Int64
	var loopsDone atomic.Int32
	var lateErrs [2]error // one slot per loop
	var closerErr error
	var closerSawLoops int32
	d, err := Start(ctx, "test", testFlags(dir), func(d *Daemon) (*ctlrpc.Server, error) {
		srv, j := attach(t, d)
		d.Store.EndRecovery()
		for i := range lateErrs {
			d.Go("journaling loop", func(ctx context.Context) error {
				defer loopsDone.Add(1)
				for ctx.Err() == nil {
					if _, err := j.Append(command("compose")); err != nil {
						return err
					}
					journaled.Add(1)
				}
				// Straggle past the cancel, as a real loop finishing its
				// tick does, and journal once more.
				time.Sleep(5 * time.Millisecond)
				if _, lateErrs[i] = j.Append(command("compose")); lateErrs[i] == nil {
					journaled.Add(1)
				}
				return nil
			})
		}
		d.OnShutdown(func() {
			closerSawLoops = loopsDone.Load()
			_, closerErr = j.Append(command("destroy"))
			journaled.Add(1)
		})
		return srv, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let loops and the 1 ms ticker run
	cancel()
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}

	for _, err := range lateErrs {
		if err != nil {
			t.Errorf("loop journaling after cancel: %v (store closed under a running loop)", err)
		}
	}
	if closerSawLoops != 2 {
		t.Errorf("closer ran with %d of 2 loops returned", closerSawLoops)
	}
	if closerErr != nil {
		t.Errorf("closer found the store closed: %v", closerErr)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "checkpointEvery") {
		t.Errorf("periodic checkpoint goroutine outlived Wait:\n%s", stacks)
	}
	if got, want := countCommands(t, dir), int(journaled.Load()); got != want {
		t.Errorf("recovered %d commands, journaled %d", got, want)
	}
}

// TestFailedBootTearsDown: whatever compose registered before the boot
// failed is torn down in shutdown order — no loop ever started, closers
// ran in reverse, the store is closed and nothing was checkpointed.
func TestFailedBootTearsDown(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	for _, tc := range []struct {
		name       string
		addr       string
		composeErr error
	}{
		{"compose fails", "127.0.0.1:0", errors.New("starting te loop: no fabric")},
		{"listen fails", busy.Addr().String(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f := testFlags(dir)
			f.Addr = tc.addr
			var loopRan atomic.Bool
			var order []string
			_, err := Start(context.Background(), "test", f, func(d *Daemon) (*ctlrpc.Server, error) {
				srv, j := attach(t, d)
				d.Store.EndRecovery()
				d.OnShutdown(func() { order = append(order, "manager") })
				d.Go("sched loop", func(context.Context) error { loopRan.Store(true); return nil })
				d.OnShutdown(func() {
					order = append(order, "injector")
					if _, err := j.Append(command("compose")); err != nil {
						t.Errorf("closer found the store closed: %v", err)
					}
				})
				return srv, tc.composeErr
			})
			if err == nil {
				t.Fatal("boot succeeded")
			}
			if tc.composeErr != nil && !errors.Is(err, tc.composeErr) {
				t.Errorf("err = %v, want %v", err, tc.composeErr)
			}
			if loopRan.Load() {
				t.Error("a loop ran although the boot failed")
			}
			if len(order) != 2 || order[0] != "injector" || order[1] != "manager" {
				t.Errorf("closers ran as %v, want [injector manager]", order)
			}
			if got := countCommands(t, dir); got != 1 {
				t.Errorf("recovered %d commands, want the closer's 1", got)
			}
		})
	}
}

// TestShutdownSnapshotRecord: the daemon writes through slog's default
// logger tagged with its name, and the clean exit's snapshot record
// carries the LSN the snapshot covers, the log's last.
func TestShutdownSnapshotRecord(t *testing.T) {
	var buf bytes.Buffer
	old, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	t.Cleanup(func() { slog.SetDefault(old); log.SetOutput(w); log.SetFlags(flags) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := testFlags(t.TempDir())
	f.StateSnapshot = 0
	d, err := Start(ctx, "test", f, func(d *Daemon) (*ctlrpc.Server, error) {
		srv, j := attach(t, d)
		d.Store.EndRecovery()
		for _, m := range []string{"compose", "destroy"} {
			if _, err := j.Append(command(m)); err != nil {
				return nil, err
			}
		}
		return srv, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	lsn := d.Store.Log().LastLSN()
	want := fmt.Sprintf(`level=INFO msg="shutdown snapshot" daemon=test lsn=%d`+"\n", lsn)
	if lsn != 2 || !strings.Contains(buf.String(), want) {
		t.Errorf("last LSN %d, want 2; records:\n%s", lsn, buf.String())
	}
}

func TestValidate(t *testing.T) {
	ok := *testFlags("")
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for want, mutate := range map[string]func(*Flags){
		"-cubes must be in 1-64, got 65":                 func(f *Flags) { f.Cubes = 65 },
		"-transceiver: ":                                 func(f *Flags) { f.Transceiver = "no-such-module" },
		"-state-snapshot must not be negative, got -1ms": func(f *Flags) { f.StateSnapshot = -time.Millisecond },
	} {
		f := ok
		mutate(&f)
		if err := f.Validate(); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Validate() = %v, want prefix %q", err, want)
		}
	}
}
