package wal

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"lightwave/internal/fleet"
	"lightwave/internal/sched"
)

// BenchmarkWALAppend measures the group-commit append path with real
// fsyncs — the latency a control-plane mutation pays for durability.
func BenchmarkWALAppend(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	in := slice("train", 0, 1, 2, 3)
	payload := mustEncode(encodeFleet(fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: "pod0", Slice: &in}))
	b.SetBytes(int64(frameHeaderBytes + 1 + len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(RecordFleet, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendNoSync isolates the framing + batching cost from the
// fsync floor.
func BenchmarkWALAppendNoSync(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := mustEncode(encodeSched(sched.JournalEntry{Op: sched.OpAdvance, T: 1234.5}))
	b.SetBytes(int64(frameHeaderBytes + 1 + len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(RecordSched, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendParallel shows group commit amortizing fsyncs across
// concurrent appenders: throughput should rise well above the serial
// fsync rate.
func BenchmarkWALAppendParallel(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := mustEncode(encodeCommand(Command{Method: "ensure",
		Params: json.RawMessage(`{"name":"s1","shape":[2,2,4]}`)}))
	b.SetBytes(int64(frameHeaderBytes + 1 + len(payload)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(RecordCommand, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := l.Status()
	if st.Appends > 0 && st.Fsyncs > 0 {
		b.ReportMetric(float64(st.Appends)/float64(st.Fsyncs), "records/fsync")
	}
}

// storeOpenRecords is BenchmarkStoreOpen's history length.
const storeOpenRecords = 24000

// storeOpenHistory is a fleet journal of n entries cycling through every
// op over eight pods: slices with and without pinned cubes, removals,
// replaces, pod and OCS drains, quarantine verdicts, pod churn.
func storeOpenHistory(n int) []fleet.JournalEntry {
	out := make([]fleet.JournalEntry, 0, n)
	for i := 0; len(out) < n; i++ {
		pod := fmt.Sprintf("pod%d", i%8)
		name := fmt.Sprintf("s%d-%d", i%8, i%48)
		in := slice(name)
		if i%2 == 0 {
			in = slice(name, i%64, (i+1)%64)
		}
		var e fleet.JournalEntry
		switch i % 16 {
		case 0:
			e = fleet.JournalEntry{Op: fleet.OpAddPod, Pod: pod}
		case 1, 2, 3, 4, 5, 6:
			e = fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: pod, Slice: &in}
		case 7, 8:
			e = fleet.JournalEntry{Op: fleet.OpRemoveSlice, Pod: pod, Name: name}
		case 9:
			e = fleet.JournalEntry{Op: fleet.OpReplace, Pod: pod, Slices: []fleet.SliceIntent{in, slice(name + "x")}}
		case 10:
			e = fleet.JournalEntry{Op: fleet.OpDrainOCS, Pod: pod, OCS: i % 48}
		case 11:
			e = fleet.JournalEntry{Op: fleet.OpUndrainOCS, Pod: pod, OCS: i % 48}
		case 12:
			e = fleet.JournalEntry{Op: fleet.OpDrainPod, Pod: pod}
		case 13:
			e = fleet.JournalEntry{Op: fleet.OpUndrainPod, Pod: pod}
		case 14:
			e = fleet.JournalEntry{Op: fleet.OpQuarantine, Pod: pod, Detail: "reconcile failed 5 times"}
		default:
			e = fleet.JournalEntry{Op: fleet.OpRecover, Pod: pod}
			if i%64 == 15 {
				e = fleet.JournalEntry{Op: fleet.OpRemovePod, Pod: pod}
			}
		}
		out = append(out, e)
	}
	return out
}

// BenchmarkStoreOpen measures what a cold recovery pays before the fleet
// manager sees anything: OpenStore reading, decoding and folding a
// log-only history written by the real encoder.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenStore(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range storeOpenHistory(storeOpenRecords) {
		if err := st.JournalFleet(e); err != nil {
			b.Fatal(err)
		}
	}
	want := st.Status()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	open := func() *Store {
		st, err := OpenStore(dir, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	st = open()
	if got := st.Status(); got.ReplayRecords != storeOpenRecords || got.ReplayErrors != 0 || got.FleetDigest != want.FleetDigest {
		b.Fatalf("replayed %d records, %d errors, digest %s, want %s", got.ReplayRecords, got.ReplayErrors, got.FleetDigest, want.FleetDigest)
	}
	st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := open().Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*storeOpenRecords), "ns/record")
	b.ReportMetric(float64(want.TotalBytes)/storeOpenRecords, "B/record")
}

// TestRecoveryWorkCounts pins the work a cold OpenStore does on a fixed
// history, log-only and with a checkpoint at nine tenths: every record is
// scanned once, only records past the snapshot's fleet LSN are decoded,
// none fails, and the open allocates a bounded number of bytes per
// scanned record, which collecting the records into a slice before
// folding them exceeds.
func TestRecoveryWorkCounts(t *testing.T) {
	const (
		records = 6000
		ckptAt  = records * 9 / 10
		// Folding as the scan runs allocates ≈ 125 B per scanned record
		// log-only (≈ 145 under -race) and ≈ 45 with the checkpoint;
		// collecting the records into one []Record before folding them
		// costs ≈ 295 log-only.
		maxAllocPerRecord = 220
	)
	history := storeOpenHistory(records)
	for _, tc := range []struct {
		name            string
		checkpointAfter int
		wantDecoded     int
	}{
		{"log-only", 0, records},
		{"snapshot", ckptAt, records - ckptAt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range history {
				if err := st.JournalFleet(e); err != nil {
					t.Fatal(err)
				}
				if i+1 == tc.checkpointAfter {
					if err := st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			want, err := st.FleetDigest()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			st, err = OpenStore(dir, Options{NoSync: true})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			s := st.Status()
			if s.ReplayRecords != records || st.replayDecoded != tc.wantDecoded || s.ReplayErrors != 0 || s.FleetDigest != want {
				t.Fatalf("scanned %d, decoded %d, %d replay errors, digest match %t; want %d, %d, 0, true",
					s.ReplayRecords, st.replayDecoded, s.ReplayErrors, s.FleetDigest == want, records, tc.wantDecoded)
			}
			if perRecord := float64(m1.TotalAlloc-m0.TotalAlloc) / records; perRecord > maxAllocPerRecord {
				t.Fatalf("OpenStore allocated %.0f B per scanned record, bound %d", perRecord, maxAllocPerRecord)
			}
		})
	}
}
