package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lightwave/internal/fleet"
	"lightwave/internal/sched"
)

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func appendT(t *testing.T, l *Log, typ RecordType, payload []byte) uint64 {
	t.Helper()
	lsn, err := l.Append(typ, payload)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return lsn
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{})
	if len(rec.Records) != 0 || rec.SnapshotState != nil {
		t.Fatalf("fresh dir recovered %d records, snapshot %v", len(rec.Records), rec.SnapshotState)
	}

	var want []Record
	for i := 0; i < 20; i++ {
		typ := RecordType(i%3 + 1)
		payload := []byte(fmt.Sprintf("record-%d", i))
		lsn := appendT(t, l, typ, payload)
		if lsn != uint64(i+1) {
			t.Fatalf("record %d got lsn %d", i, lsn)
		}
		want = append(want, Record{LSN: lsn, Type: typ, Payload: payload})
	}
	if got := l.LastLSN(); got != 20 {
		t.Fatalf("LastLSN = %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec2.Records), len(want))
	}
	for i, r := range rec2.Records {
		w := want[i]
		if r.LSN != w.LSN || r.Type != w.Type || !bytes.Equal(r.Payload, w.Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
	// The reopened log appends at the next LSN.
	if lsn := appendT(t, l2, RecordFleet, []byte("after")); lsn != 21 {
		t.Fatalf("post-reopen lsn = %d", lsn)
	}
}

func TestRotationKeepsEveryRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 128, NoSync: true})
	const n = 100
	for i := 0; i < n; i++ {
		appendT(t, l, RecordSched, []byte(fmt.Sprintf("rotating-%03d", i)))
	}
	st := l.Status()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{SegmentBytes: 128, NoSync: true})
	defer l2.Close()
	if len(rec.Records) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.LSN)
		}
	}
}

// memSnapshotter snapshots a fixed state covering a fixed LSN.
type memSnapshotter struct {
	state   []byte
	covered uint64
}

func (s memSnapshotter) Snapshot() ([]byte, uint64, error) { return s.state, s.covered, nil }

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 128, NoSync: true})
	for i := 0; i < 60; i++ {
		appendT(t, l, RecordFleet, []byte(fmt.Sprintf("pre-snap-%03d", i)))
	}
	before := l.Status()
	if before.Segments < 2 {
		t.Fatalf("need multiple segments to compact, got %d", before.Segments)
	}
	if err := l.Checkpoint(memSnapshotter{state: []byte("state@60"), covered: 60}); err != nil {
		t.Fatal(err)
	}
	after := l.Status()
	if after.Segments >= before.Segments {
		t.Fatalf("compaction kept %d segments (was %d)", after.Segments, before.Segments)
	}
	if after.SnapshotLSN != 60 {
		t.Fatalf("snapshot lsn = %d", after.SnapshotLSN)
	}
	// Records after the snapshot replay on top of it.
	for i := 0; i < 5; i++ {
		appendT(t, l, RecordFleet, []byte(fmt.Sprintf("post-snap-%d", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{SegmentBytes: 128, NoSync: true})
	defer l2.Close()
	if string(rec.SnapshotState) != "state@60" {
		t.Fatalf("snapshot state = %q", rec.SnapshotState)
	}
	if rec.SnapshotLSN != 60 {
		t.Fatalf("snapshot lsn = %d", rec.SnapshotLSN)
	}
	tail := 0
	for _, r := range rec.Records {
		if r.LSN > rec.SnapshotLSN {
			tail++
		}
	}
	if tail != 5 {
		t.Fatalf("replayed %d tail records, want 5", tail)
	}
	if lsn := appendT(t, l2, RecordFleet, []byte("alive")); lsn != 66 {
		t.Fatalf("post-recovery lsn = %d", lsn)
	}
}

// TestCheckpointFullyCompacted covers the everything-covered case: all
// segments but the active one go away and a fresh open positions the
// sequence from the snapshot alone.
func TestCheckpointFullyCompacted(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 64, NoSync: true})
	for i := 0; i < 30; i++ {
		appendT(t, l, RecordCommand, []byte(fmt.Sprintf("cmd-%02d", i)))
	}
	if err := l.Checkpoint(memSnapshotter{state: []byte("all"), covered: l.LastLSN()}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{NoSync: true})
	defer l2.Close()
	for _, r := range rec.Records {
		if r.LSN > rec.SnapshotLSN {
			t.Fatalf("unexpected tail record %d", r.LSN)
		}
	}
	if lsn := appendT(t, l2, RecordCommand, []byte("next")); lsn != 31 {
		t.Fatalf("lsn after full compaction = %d, want 31", lsn)
	}
}

func TestCorruptSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{NoSync: true})
	appendT(t, l, RecordFleet, []byte("a"))
	if err := l.Checkpoint(memSnapshotter{state: []byte("good"), covered: 0}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer, corrupt snapshot must lose to the older valid one.
	bad := filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, uint64(99), snapSuffix))
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{NoSync: true})
	defer l2.Close()
	if rec.SkippedSnapshots != 1 {
		t.Fatalf("skipped = %d", rec.SkippedSnapshots)
	}
	if string(rec.SnapshotState) != "good" || rec.SnapshotLSN != 1 {
		t.Fatalf("recovered snapshot %q at %d", rec.SnapshotState, rec.SnapshotLSN)
	}
}

// TestCorruptSnapshotOverCompactedLog: once a checkpoint has compacted the
// log, losing its snapshot loses the records it covered. Replaying the
// surviving suffix would boot a state that never existed, so Open refuses,
// naming the LSN the log resumes at and the LSN the snapshot left covers.
func TestCorruptSnapshotOverCompactedLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 512, NoSync: true}
	st, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	journal := func(e fleet.JournalEntry) {
		t.Helper()
		if err := st.JournalFleet(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		in := slice(fmt.Sprintf("s%02d", i%20), i%8)
		journal(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &in})
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		journal(fleet.JournalEntry{Op: fleet.OpRemoveSlice, Pod: "pod0", Name: fmt.Sprintf("s%02d", i)})
	}
	want, err := st.FleetDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	first, ok := parseName(listSegments(t, dir)[0], segPrefix, segSuffix)
	if !ok || first <= 1 {
		t.Fatalf("checkpoint compacted nothing: the log still starts at LSN %d", first)
	}

	// Intact, the snapshot plus the tail are the whole history.
	st, err = OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.FleetDigest()
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Status(); got != want || s.FleetSlices != 17 || s.ReplayErrors != 0 {
		t.Fatalf("intact reopen: %d slices, %d replay errors, digest match %t", s.FleetSlices, s.ReplayErrors, got == want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, %v", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir, opts)
	if err == nil {
		s := st.Status()
		st.Close()
		t.Fatalf("reopen over a corrupt snapshot succeeded with %d slices, %d records replayed", s.FleetSlices, s.ReplayRecords)
	}
	for _, lsn := range []string{fmt.Sprintf("LSN %d", first), "LSN 0"} {
		if !strings.Contains(err.Error(), lsn) {
			t.Errorf("error %q does not name %s", err, lsn)
		}
	}
}

// TestCheckpointCoveredNeverRegresses: a daemon run without its scheduler
// over a directory that holds sched records snapshots with covered 0, since
// the unattached section pins compaction. Records that an earlier
// checkpoint compacted away are still covered, so the new snapshot must
// say so, or the next open refuses an intact directory.
func TestCheckpointCoveredNeverRegresses(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 512, NoSync: true}
	st, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		in := slice(fmt.Sprintf("s%02d", i%20), i%8)
		if err := st.JournalFleet(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &in}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first, ok := parseName(listSegments(t, dir)[0], segPrefix, segSuffix)
	if !ok || first <= 1 {
		t.Fatalf("checkpoint compacted nothing: the log still starts at LSN %d", first)
	}
	// The scheduler ran once and is gone: its record stays in the log, and
	// this run attaches no scheduler section.
	if _, err := st.Log().Append(RecordSched, schedRecord(func(s *sched.Scheduler) error { return s.AdvanceTo(1) })); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenStore(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := st.JournalFleet(fleet.JournalEntry{Op: fleet.OpRemoveSlice, Pod: "pod0", Name: "s00"}); err != nil {
		t.Fatal(err)
	}
	if _, covered, err := st.Snapshot(); err != nil || covered != 0 {
		t.Fatalf("Snapshot covered = %d, %v; want 0 with an unattached sched section", covered, err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := st.FleetDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenStore(dir, opts)
	if err != nil {
		t.Fatalf("reopen after a covered-0 checkpoint: %v", err)
	}
	defer st.Close()
	got, err := st.FleetDigest()
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Status(); got != want || s.FleetSlices != 19 || s.ReplayErrors != 0 {
		t.Fatalf("reopen: %d slices, %d replay errors, digest match %t", s.FleetSlices, s.ReplayErrors, got == want)
	}
}

// rawSnapshot is a Snapshotter that writes a fixed payload.
type rawSnapshot []byte

func (p rawSnapshot) Snapshot() ([]byte, uint64, error) { return p, 0, nil }

// TestCommandListSnapshotRefused: a snapshot carrying lwfd's replayable
// command list, the section written before fabric-state snapshots, fails
// the open and names the section, rather than booting a fabric without
// the state it held.
func TestCommandListSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{NoSync: true})
	cmd, err := encodeCommand(Command{Method: "install-cube", Params: json.RawMessage(`{"cube":12}`)})
	if err != nil {
		t.Fatal(err)
	}
	appendT(t, l, RecordCommand, cmd)
	old := rawSnapshot(`{"fleetLSN":0,"cmdLSN":1,"commands":[{"method":"install-cube","params":{"cube":12}}]}`)
	if err := l.Checkpoint(old); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, Options{NoSync: true})
	if err == nil {
		st.Close()
		t.Fatal("OpenStore booted past a command-list snapshot")
	}
	if !strings.Contains(err.Error(), `"commands"`) {
		t.Fatalf("error %q does not name the commands section", err)
	}
}

// TestRefusedOpenLeavesDirectory: an OpenStore that refuses a state
// directory changes nothing in it — no torn tail is truncated, no segment
// dropped or created — so the operator still holds the bytes that were
// refused. Each case is one of the two refusals: a JSON-era record with a
// torn tail behind it, and a command-list snapshot (over its log, and
// alone, where a fresh segment would otherwise be created).
func TestRefusedOpenLeavesDirectory(t *testing.T) {
	jsonThenTear := func(t *testing.T, dir string) {
		l, _ := openT(t, dir, Options{NoSync: true})
		appendT(t, l, RecordFleet, mustEncode(encodeFleet(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "pod0"})))
		appendT(t, l, RecordFleet, []byte(`{"op":"add-pod","pod":"pod1"}`))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, listSegments(t, dir)[0])
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3}); err != nil { // half a frame header
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	commandList := func(keepLog bool) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			l, _ := openT(t, dir, Options{NoSync: true})
			appendT(t, l, RecordCommand, mustEncode(encodeCommand(Command{Method: "install-cube", Params: json.RawMessage(`{"cube":12}`)})))
			old := rawSnapshot(`{"fleetLSN":0,"cmdLSN":1,"commands":[{"method":"install-cube","params":{"cube":12}}]}`)
			if err := l.Checkpoint(old); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if !keepLog {
				for _, name := range listSegments(t, dir) {
					if err := os.Remove(filepath.Join(dir, name)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		name, refusal string
		build         func(*testing.T, string)
	}{
		{"json-record-before-torn-tail", "predates binary records", jsonThenTear},
		{"command-list-snapshot", `"commands"`, commandList(true)},
		{"command-list-snapshot-alone", `"commands"`, commandList(false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			before := dirBytes(t, dir)
			st, err := OpenStore(dir, Options{NoSync: true})
			if err == nil {
				st.Close()
				t.Fatal("OpenStore accepted the directory")
			}
			if !strings.Contains(err.Error(), tc.refusal) {
				t.Fatalf("error %q does not name %s", err, tc.refusal)
			}
			after := dirBytes(t, dir)
			for name, b := range before {
				if a, ok := after[name]; !ok || !bytes.Equal(a, b) {
					t.Errorf("%s: %d bytes before the refused open, %d after (present %t)", name, len(b), len(a), ok)
				}
			}
			for name := range after {
				if _, ok := before[name]; !ok {
					t.Errorf("refused open created %s", name)
				}
			}
		})
	}
}

// dirBytes reads every file in dir, by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestAppendErrors(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{NoSync: true})
	if _, err := l.Append(RecordFleet, make([]byte, MaxRecordBytes)); err != ErrTooLarge {
		t.Fatalf("oversized append err = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecordFleet, []byte("x")); err != ErrClosed {
		t.Fatalf("append after close err = %v", err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestConcurrentAppends drives the group-commit path from many goroutines:
// every append gets a unique LSN and every record survives replay.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 4096})
	const (
		workers = 8
		each    = 50
	)
	lsns := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := l.Append(RecordSched, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				lsns[w] = append(lsns[w], lsn)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ws := range lsns {
		for _, lsn := range ws {
			if seen[lsn] {
				t.Fatalf("duplicate lsn %d", lsn)
			}
			seen[lsn] = true
		}
	}
	if len(seen) != workers*each {
		t.Fatalf("%d unique lsns, want %d", len(seen), workers*each)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != workers*each {
		t.Fatalf("replayed %d, want %d", len(rec.Records), workers*each)
	}
}

// TestCloseFlushesPending ensures records in flight when Close is called
// are committed, matching the clean-shutdown path.
func TestCloseFlushesPending(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Appends racing Close either commit or report ErrClosed;
			// anything that returned an LSN must survive replay.
			l.Append(RecordFleet, []byte(fmt.Sprintf("pending-%d", i))) //nolint:errcheck
		}(i)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 16 {
		t.Fatalf("replayed %d records, want 16", len(rec.Records))
	}
}
