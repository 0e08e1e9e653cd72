// Snapshots and log compaction. A snapshot file carries an opaque state
// payload produced by a Snapshotter plus the covered LSN: every log record
// with LSN ≤ covered is redundant with the payload, so segments wholly
// below it can be deleted. Snapshot files are written to a temp name,
// fsynced, then renamed — a crash mid-snapshot leaves the previous
// snapshot authoritative, and replay skips corrupt snapshot files.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Snapshotter captures a consistent copy of the application state guarded
// by the log. The covered LSN must be such that replaying records with
// LSN > covered on top of state reproduces the live state; returning a
// conservative (smaller) value is always safe, it just compacts less.
type Snapshotter interface {
	Snapshot() (state []byte, covered uint64, err error)
}

// snapshot file layout: u32le length | u32le crc32c | u64le covered | state
const snapHeaderBytes = 8

// Checkpoint captures a snapshot, makes it durable, and compacts segments
// the snapshot covers. Safe to call while appends are in flight: the
// Snapshotter's covered LSN bounds what is deleted, and the snapshot is
// written only once every record staged before it — which its state may
// already hold — is durable, so it never claims an LSN the log could
// still lose. A log whose commit failed refuses to checkpoint.
func (l *Log) Checkpoint(s Snapshotter) error {
	state, covered, err := s.Snapshot()
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	atLSN, err := l.syncPoint()
	if err != nil {
		return fmt.Errorf("wal: checkpoint refused: %w", err)
	}
	if covered > atLSN {
		covered = atLSN
	}
	// Records below the first surviving segment were compacted under an
	// earlier snapshot, so this one covers them too. A Snapshotter may
	// report less (a section whose source is not attached pins its floor
	// at 0), but the header must not go backward: replay refuses a log
	// that resumes after covered+1.
	l.smu.Lock()
	if floor := l.segments[0].first - 1; covered < floor {
		covered = floor
	}
	l.smu.Unlock()

	path := l.snapPath(atLSN)
	if err := writeSnapshotFile(path, covered, state, !l.opts.NoSync); err != nil {
		return err
	}
	l.met.snapshots.Inc()

	l.smu.Lock()
	prev := l.snapLSN
	l.snapLSN = atLSN
	// Compact: drop every non-active segment wholly ≤ covered, and any
	// older snapshot files (the newest one is self-sufficient).
	removed := 0
	keep := l.segments[:0]
	for i, s := range l.segments {
		if i < len(l.segments)-1 && s.last <= covered && s.last >= s.first {
			if err := os.Remove(s.path); err == nil {
				removed++
				continue
			}
		}
		keep = append(keep, s)
	}
	l.segments = keep
	l.met.segments.Set(float64(len(l.segments)))
	l.smu.Unlock()

	if prev != 0 && prev != atLSN {
		_ = os.Remove(l.snapPath(prev))
	}
	// Older snapshots from previous processes may remain if they were
	// not the one replay selected; sweep them too.
	if entries, err := os.ReadDir(l.dir); err == nil {
		for _, e := range entries {
			if lsn, ok := parseName(e.Name(), snapPrefix, snapSuffix); ok && lsn != atLSN {
				_ = os.Remove(filepath.Join(l.dir, e.Name()))
			}
		}
	}
	if removed > 0 {
		l.met.compactions.Add(int64(removed))
	}
	// Best-effort: a resurrected pre-snapshot segment or stale snapshot
	// is ignored (or re-swept) by the next replay.
	_ = syncDir(l.dir)
	return nil
}

func writeSnapshotFile(path string, covered uint64, state []byte, sync bool) error {
	body := make([]byte, snapHeaderBytes+len(state))
	binary.LittleEndian.PutUint64(body[:8], covered)
	copy(body[snapHeaderBytes:], state)
	frame := make([]byte, frameHeaderBytes+len(body))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, castagnoli))
	copy(frame[frameHeaderBytes:], body)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if sync {
		// The snapshot must be findable after a crash before Checkpoint
		// is allowed to compact the segments it covers; a swallowed
		// dirsync failure here was the data-loss window the fsyncerr
		// audit flagged.
		if err := syncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("wal: snapshot dirsync: %w", err)
		}
	}
	return nil
}

// readSnapshotFile validates a snapshot and returns its covered LSN and
// state payload.
func readSnapshotFile(path string) (uint64, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < frameHeaderBytes+snapHeaderBytes {
		return 0, nil, fmt.Errorf("wal: snapshot %s: short file", filepath.Base(path))
	}
	body := int(binary.LittleEndian.Uint32(data[0:4]))
	if body != len(data)-frameHeaderBytes {
		return 0, nil, fmt.Errorf("wal: snapshot %s: bad length", filepath.Base(path))
	}
	want := binary.LittleEndian.Uint32(data[4:8])
	if crc32.Checksum(data[frameHeaderBytes:], castagnoli) != want {
		return 0, nil, fmt.Errorf("wal: snapshot %s: bad checksum", filepath.Base(path))
	}
	covered := binary.LittleEndian.Uint64(data[frameHeaderBytes : frameHeaderBytes+snapHeaderBytes])
	return covered, data[frameHeaderBytes+snapHeaderBytes:], nil
}
