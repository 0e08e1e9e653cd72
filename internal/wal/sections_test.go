package wal_test

// The owner sections through Store.Attach: a directory written before the
// scheduler's and the fabric server's sections moved to their owners opens
// to the same state and is written again byte for byte, each section's
// malformed and JSON-era records are skipped and refused as the fleet's
// are, and wal itself imports neither owner.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/topo"
	"lightwave/internal/wal"
	"lightwave/internal/walrec"
)

const fixtureCubes = 8

// fixtureOwners are a fresh scheduler and a fresh lwfd fabric server.
type fixtureOwners struct {
	s      *sched.Scheduler
	fabric *core.Fabric
	srv    *ctlrpc.Server
}

func newFixtureOwners(t *testing.T) fixtureOwners {
	t.Helper()
	s, err := sched.NewScheduler(sched.SchedulerConfig{Pods: []string{"pod0", "pod1"}, InstalledCubes: fixtureCubes})
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(core.DefaultConfig(fixtureCubes))
	if err != nil {
		t.Fatal(err)
	}
	return fixtureOwners{s: s, fabric: f, srv: ctlrpc.NewServer(f)}
}

// attach restores both owners' sections from st and journals them there,
// as the daemons do, and sums what the two replays applied and refused.
func (o fixtureOwners) attach(t *testing.T, st *wal.Store) (applied, failed int) {
	t.Helper()
	j, a, f, err := st.Attach(wal.RecordSched, o.s)
	if err != nil {
		t.Fatal(err)
	}
	o.s.SetJournal(j)
	applied, failed = a, f
	if j, a, f, err = st.Attach(wal.RecordCommand, o.srv); err != nil {
		t.Fatal(err)
	}
	o.srv.SetJournal(j)
	return applied + a, failed + f
}

// serve runs srv on a loopback socket for the rest of the test.
func serve(t *testing.T, srv *ctlrpc.Server) *ctlrpc.Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, lis) }()
	cli, err := ctlrpc.Dial(lis.Addr().String(), 3*time.Second)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); cancel(); <-done })
	return cli
}

// writeFixtureHistory is the history testdata/statedir holds: fleet
// intents, scheduler inputs and lwfd commands (one of them refused), then
// checkpoint, then more of each.
func writeFixtureHistory(t *testing.T, st *wal.Store, o fixtureOwners, checkpoint func()) {
	t.Helper()
	cli := serve(t, o.srv)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	intent := func(e fleet.JournalEntry) { t.Helper(); must(st.JournalFleet(e)) }
	submit := func(cubes int, seconds float64) {
		t.Helper()
		_, _, err := o.s.Submit(sched.JobSpec{Cubes: cubes, DurationSeconds: seconds})
		must(err)
	}
	compose := func(name string, cubes ...int) error {
		_, err := cli.Compose(name, [3]int{4, 4, 8}, cubes)
		return err
	}
	shape := topo.Shape{X: 4, Y: 4, Z: 16}

	intent(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "pod0"})
	intent(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &fleet.SliceIntent{Name: "train", Shape: shape, Cubes: []int{0, 1, 2, 3}}})
	intent(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "pod1"})
	intent(fleet.JournalEntry{Op: fleet.OpDrainOCS, Pod: "pod1", OCS: 9})
	submit(2, 100)
	submit(4, 40)
	must(o.s.AdvanceTo(5))
	must(o.s.FailCube("pod0", 6))
	must(compose("a", 0, 1))
	must(compose("b", 2, 3))
	must(cli.Destroy("a"))

	checkpoint()

	intent(fleet.JournalEntry{Op: fleet.OpRemoveSlice, Pod: "pod0", Name: "train"})
	intent(fleet.JournalEntry{Op: fleet.OpUndrainOCS, Pod: "pod1", OCS: 9})
	intent(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod1", Slice: &fleet.SliceIntent{Name: "batch", Shape: shape}})
	submit(4, 20)
	must(o.s.AdvanceTo(12))
	must(o.s.RepairCube("pod0", 6))
	must(compose("c", 0, 1))
	if compose("d", 0, 1) == nil {
		t.Fatal("compose over busy cubes succeeded")
	}
	must(cli.Destroy("b"))
}

func openStore(t *testing.T, dir string) *wal.Store {
	t.Helper()
	st, err := wal.OpenStore(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestParentStateDirectory: testdata/statedir was written by the store
// before the scheduler's and the fabric server's sections moved to their
// owners, and testdata/statedir.json holds what that build restored from
// it: the fleet digest and both owners' state exports. A fresh scheduler
// and fabric server attached to a copy must restore the same, and the same
// history written again must leave the same bytes, snapshot and log.
func TestParentStateDirectory(t *testing.T) {
	var want struct {
		FleetDigest string          `json:"fleetDigest"`
		Sched       json.RawMessage `json:"sched"`
		Fabric      json.RawMessage `json:"fabric"`
	}
	b, err := os.ReadFile("testdata/statedir.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	parent := wal.DirBytes(t, "testdata/statedir")
	dir := t.TempDir()
	for name, b := range parent {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st := openStore(t, dir)
	o := newFixtureOwners(t)
	o.attach(t, st)
	if got, err := st.FleetDigest(); err != nil || got != want.FleetDigest {
		t.Errorf("fleet digest %s, %v; want %s", got, err, want.FleetDigest)
	}
	for name, pair := range map[string][2]any{
		"scheduler": {o.s.ExportState(), want.Sched},
		"fabric":    {o.fabric.ExportState(), want.Fabric},
	} {
		got, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := json.Compact(&w, pair[1].(json.RawMessage)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w.Bytes()) {
			t.Errorf("%s state:\n got %s\nwant %s", name, got, w.Bytes())
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	dir = t.TempDir()
	st = openStore(t, dir)
	o = newFixtureOwners(t)
	o.attach(t, st)
	writeFixtureHistory(t, st, o, func() {
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got := wal.DirBytes(t, dir)
	for name, b := range parent {
		if !bytes.Equal(got[name], b) {
			t.Errorf("%s: the history wrote %d bytes that differ from the parent's %d", name, len(got[name]), len(b))
		}
	}
	for name := range got {
		if _, ok := parent[name]; !ok {
			t.Errorf("the history wrote %s, which the parent did not", name)
		}
	}
}

// TestUnattachedSectionCarriedForward: a boot that never attaches an
// owner section (lwfleetd without -sched) checkpoints the section's
// snapshot state forward at its LSN, so a later boot that attaches it
// restores every job, although the first checkpoint compacted the
// records behind that state.
func TestUnattachedSectionCarriedForward(t *testing.T) {
	const jobs = 30
	dir := t.TempDir()
	open := func() *wal.Store {
		t.Helper()
		st, err := wal.OpenStore(dir, wal.Options{NoSync: true, SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	checkpointAndClose := func(st *wal.Store) {
		t.Helper()
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	attachSched := func(st *wal.Store) *sched.Scheduler {
		t.Helper()
		s := newFixtureOwners(t).s
		j, _, _, err := st.Attach(wal.RecordSched, s)
		if err != nil {
			t.Fatal(err)
		}
		s.SetJournal(j)
		return s
	}

	st := open()
	s := attachSched(st)
	for i := 0; i < jobs; i++ {
		if _, _, err := s.Submit(sched.JobSpec{Cubes: 2, DurationSeconds: 100}); err != nil {
			t.Fatal(err)
		}
	}
	checkpointAndClose(st)
	checkpointAndClose(open()) // a boot without the scheduler

	st = open()
	defer st.Close()
	if got := attachSched(st).Stats(); got.Submitted != jobs || got.QueueDepth+got.RunningJobs != jobs {
		t.Fatalf("restored %d submitted, %d queued and %d running; want %d jobs",
			got.Submitted, got.QueueDepth, got.RunningJobs, jobs)
	}
}

// TestPreBinaryRecordRefused: a malformed binary payload is counted and
// skipped — by the open for a fleet record, by Attach for an owner
// section's — but a payload with an unknown version byte, a JSON record
// from before binary records, fails the open rather than booting without
// it, and the refused open changes nothing in the directory.
func TestPreBinaryRecordRefused(t *testing.T) {
	appendRaw := func(t *testing.T, dir string, typ wal.RecordType, p []byte) {
		t.Helper()
		l, _, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(typ, p); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		typ  wal.RecordType
		json string
	}{
		{wal.RecordFleet, `{"op":"add-pod","pod":"pod1"}`},
		{wal.RecordSched, `{"op":"advance","t":60}`},
		{wal.RecordCommand, `{"method":"install-cube","params":{"cube":12}}`},
	} {
		t.Run(fmt.Sprintf("type-%d", tc.typ), func(t *testing.T) {
			// One good record of every section at LSNs 1-3, then a
			// malformed one of this type at LSN 4.
			dir := t.TempDir()
			st := openStore(t, dir)
			o := newFixtureOwners(t)
			o.attach(t, st)
			if err := st.JournalFleet(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "pod0"}); err != nil {
				t.Fatal(err)
			}
			if err := o.s.AdvanceTo(60); err != nil {
				t.Fatal(err)
			}
			if _, err := serve(t, o.srv).Compose("a", [3]int{4, 4, 8}, []int{0, 1}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			appendRaw(t, dir, tc.typ, []byte{walrec.V1, 0xff})

			st = openStore(t, dir)
			applied, failed := newFixtureOwners(t).attach(t, st)
			if s := st.Status(); s.ReplayErrors != 1 || s.FleetPods != 1 || applied != 2 || failed != 0 {
				t.Fatalf("malformed v1 record: %d replay errors, %d pods, %d applied, %d failed; want 1, 1, 2, 0",
					s.ReplayErrors, s.FleetPods, applied, failed)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			appendRaw(t, dir, tc.typ, []byte(tc.json))
			before := wal.DirBytes(t, dir)
			st, err := wal.OpenStore(dir, wal.Options{NoSync: true})
			if err == nil {
				st.Close()
				t.Fatal("OpenStore replayed a JSON-era record")
			}
			if !strings.Contains(err.Error(), "LSN 5") || !strings.Contains(err.Error(), "predates binary records") {
				t.Fatalf("error %q does not name LSN 5 and the pre-binary format", err)
			}
			after := wal.DirBytes(t, dir)
			for name, b := range before {
				if !bytes.Equal(after[name], b) {
					t.Errorf("%s changed under the refused open", name)
				}
			}
			if len(after) != len(before) {
				t.Errorf("the refused open left %d files, found %d", len(after), len(before))
			}
		})
	}
}

// TestWALImportsNoOwner: the scheduler's and the fabric server's sections
// reach the store only through Section, so wal's own files import neither
// owner. fleet is the one owner wal still imports: its section is built
// in.
func TestWALImportsNoOwner(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("wal sources: %v, %v", files, err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); p {
			case "lightwave/internal/core", "lightwave/internal/sched":
				t.Errorf("%s imports %s", path, p)
			}
		}
	}
}
