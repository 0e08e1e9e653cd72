package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestTortureEveryByteOffset is the crash-point torture test: build a
// multi-segment log, then simulate a crash at every byte offset of every
// segment by truncating that segment there (a torn write never reorders
// earlier bytes, so a prefix is exactly what a crash can leave). Replay
// must always recover the longest valid record prefix — frames fully
// committed before the crash point — and the reopened log must accept new
// appends at the right LSN.
func TestTortureEveryByteOffset(t *testing.T) {
	master := t.TempDir()
	l, _ := openT(t, master, Options{SegmentBytes: 160, NoSync: true})
	const n = 40
	for i := 0; i < n; i++ {
		// Varying payload sizes exercise offsets that split headers,
		// type bytes, and payloads.
		payload := []byte(fmt.Sprintf("torture-%02d-%s", i, "xxxxxxxxxx"[:i%10]))
		appendT(t, l, RecordType(i%3+1), payload)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs := listSegments(t, master)
	if len(segs) < 3 {
		t.Fatalf("want a multi-segment log, got %d segments", len(segs))
	}

	// Frame boundaries per segment: ends[s] holds the cumulative record
	// count at each valid truncation offset of segment s.
	type segInfo struct {
		name string
		size int64
		// frameEnds[k] is the byte offset at which the (k+1)-th record of
		// this segment ends.
		frameEnds []int64
		before    int // records in earlier segments
	}
	infos := make([]segInfo, len(segs))
	total := 0
	for si, name := range segs {
		path := filepath.Join(master, name)
		first, ok := parseName(name, segPrefix, segSuffix)
		if !ok {
			t.Fatalf("unparseable segment name %q", name)
		}
		info := segInfo{name: name, before: total}
		off := int64(0)
		count, valid, size, err := scanSegment(path, first, func(r Record) error {
			off += int64(frameHeaderBytes + 1 + len(r.Payload))
			info.frameEnds = append(info.frameEnds, off)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if valid != size {
			t.Fatalf("master segment %s has a torn tail", name)
		}
		info.size = size
		infos[si] = info
		total += count
	}
	if total != n {
		t.Fatalf("master log holds %d records, want %d", total, n)
	}

	for si, info := range infos {
		for off := int64(0); off <= info.size; off++ {
			dir := t.TempDir()
			// Crash image: all earlier segments intact, this one cut at
			// off, later segments present but doomed (replay must drop
			// them — their LSNs no longer chain).
			for sj, other := range infos {
				src := filepath.Join(master, other.name)
				dst := filepath.Join(dir, other.name)
				data, err := os.ReadFile(src)
				if err != nil {
					t.Fatal(err)
				}
				if sj == si {
					data = data[:off]
				}
				if err := os.WriteFile(dst, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			wantRecs := info.before
			atBoundary := off == 0
			for _, end := range info.frameEnds {
				if end <= off {
					wantRecs++
				}
				if end == off {
					atBoundary = true
				}
			}
			if off == info.size {
				// Nothing torn: this segment is whole, so later segments
				// still chain and the entire log survives.
				wantRecs = total
			}

			l2, rec, err := Open(dir, Options{SegmentBytes: 160, NoSync: true})
			if err != nil {
				t.Fatalf("segment %d offset %d: Open: %v", si, off, err)
			}
			if len(rec.Records) != wantRecs {
				l2.Close()
				t.Fatalf("segment %d offset %d: recovered %d records, want %d",
					si, off, len(rec.Records), wantRecs)
			}
			for k, r := range rec.Records {
				if r.LSN != uint64(k+1) {
					l2.Close()
					t.Fatalf("segment %d offset %d: record %d has lsn %d", si, off, k, r.LSN)
				}
			}
			switch {
			case off == info.size:
				if rec.TruncatedBytes != 0 || rec.DroppedSegments != 0 {
					l2.Close()
					t.Fatalf("segment %d offset %d: spurious truncation (%d bytes, %d segments)",
						si, off, rec.TruncatedBytes, rec.DroppedSegments)
				}
			case !atBoundary:
				// A mid-frame cut must be reported as a torn tail.
				if rec.TruncatedBytes == 0 {
					l2.Close()
					t.Fatalf("segment %d offset %d: torn tail not reported", si, off)
				}
			case si < len(infos)-1:
				// A clean frame-boundary cut leaves no in-segment evidence,
				// but the now-unchainable later segments must be dropped.
				if rec.DroppedSegments == 0 {
					l2.Close()
					t.Fatalf("segment %d offset %d: later segments not dropped", si, off)
				}
			}
			// The recovered log must be appendable at the next LSN.
			lsn, err := l2.Append(RecordFleet, []byte("post-crash"))
			if err != nil {
				t.Fatalf("segment %d offset %d: append after recovery: %v", si, off, err)
			}
			if lsn != uint64(wantRecs+1) {
				l2.Close()
				t.Fatalf("segment %d offset %d: post-crash lsn %d, want %d",
					si, off, lsn, wantRecs+1)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// listSegments returns the directory's segment file names sorted by first
// LSN.
func listSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseName(e.Name(), segPrefix, segSuffix); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}
