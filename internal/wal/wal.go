// Package wal is the control plane's durable-state subsystem: an
// append-only segmented write-ahead log plus periodic snapshots with log
// compaction. The paper's management plane survives restarts of any single
// software component because the data plane keeps forwarding while software
// recovers (§3.2.2); wal makes our reproduction match that by journaling
// every mutation of desired state so a restarted daemon can rebuild its
// intent store from disk and let the reconcile workers converge the live
// fabric to it. Recovery restores intent; reconciliation restores reality.
//
// On-disk layout inside a state directory:
//
//	wal-%016x.log   log segments, named by the LSN of their first record
//	snap-%016x.snap snapshots, named by the log LSN at capture time
//
// Each log record is framed as
//
//	u32le length | u32le crc32c | type byte | payload
//
// where length counts the type byte plus payload and the CRC (Castagnoli)
// covers the same bytes; record.go defines the versioned binary payloads.
// Appends are group-committed in two steps: stage
// frames the record into the current batch under a mutex, assigns its LSN
// and kicks a dedicated writer goroutine through a one-slot channel (the
// same idiom as the ctlrpc pipelined writer); wait blocks until the writer
// has swapped that batch out, issued one write and one fsync for however
// many records accumulated, and woken every waiter. A commit failure is
// fail-stop: the batch is rolled back off the segment, its waiters and
// those of every batch staged behind it get the error, nothing is written
// again, and the log refuses further appends and checkpoints.
// Replay truncates a torn tail (short frame, bad length, or CRC mismatch)
// and discards any segments after the tear, so a crash at any byte offset
// leaves a valid prefix. A log that resumes after the newest valid
// snapshot's covered LSN has lost records and is refused.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"lightwave/internal/telemetry"
)

const (
	// DefaultSegmentBytes rotates segments at 8 MiB, small enough that
	// snapshot-driven compaction reclaims space promptly.
	DefaultSegmentBytes = 8 << 20

	// MaxRecordBytes caps one record (type byte + payload); a length
	// field beyond it is treated as a torn tail on replay.
	MaxRecordBytes = 16 << 20

	frameHeaderBytes = 8

	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrTooLarge is returned by Append for a record above MaxRecordBytes.
var ErrTooLarge = errors.New("wal: record too large")

// Options tunes a Log. The zero value is usable.
type Options struct {
	// SegmentBytes rotates to a new segment once the active one exceeds
	// this size; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips fsync on commit (tests only; crash durability is
	// gone, torn-tail handling still applies).
	NoSync bool
	// Metrics, when set, exposes wal_* counters and distributions.
	Metrics *telemetry.Registry
}

// Record is one replayed log entry. Payload shares the buffer its segment
// was read into; a caller that keeps payload bytes copies them.
type Record struct {
	LSN     uint64
	Type    RecordType
	Payload []byte
}

// Recovery reports what Open reconstructed from disk.
type Recovery struct {
	// SnapshotState is the latest valid snapshot payload, nil if none.
	SnapshotState []byte
	// SnapshotLSN is the log LSN at snapshot capture, 0 if none.
	SnapshotLSN uint64
	// SnapshotCovered is the highest LSN the snapshot's state holds
	// (≤ SnapshotLSN), 0 if none: the log must resume by the next one.
	SnapshotCovered uint64
	// Records are all surviving log records in LSN order, including
	// ones the snapshot already covers (callers skip by section LSN).
	// Only Open fills it; OpenStore folds each record as it is scanned.
	Records []Record
	// TruncatedBytes counts bytes cut from a torn tail.
	TruncatedBytes int64
	// DroppedSegments counts whole segments discarded after a tear or
	// an inter-segment LSN gap.
	DroppedSegments int
	// SkippedSnapshots counts corrupt snapshot files passed over.
	SkippedSnapshots int
}

// batch accumulates framed records awaiting one write+fsync.
type batch struct {
	buf  []byte
	n    int
	last uint64
	err  error
	done chan struct{}
}

type segment struct {
	path  string
	first uint64
	last  uint64 // last LSN in the segment; maintained on rotation
}

// Log is an append-only segmented write-ahead log with group-commit
// batching. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	met  *walMetrics

	mu       sync.Mutex
	cur      *batch
	inflight *batch // the batch last handed to the writer
	seq      uint64 // next LSN to assign; LSNs start at 1
	closed   bool
	broken   error // sticky commit failure: refuse further appends

	kick     chan struct{}
	stop     chan struct{}
	wdone    chan struct{}
	stopOnce sync.Once

	// Writer-goroutine state (and Open, before the writer starts).
	f        *os.File
	segBytes int64
	// fsync makes a written batch durable; tests swap in a failing one.
	fsync func(*os.File) error

	// smu guards the segment list and snapshot bookkeeping, shared by
	// the writer (rotation) and Checkpoint (compaction).
	smu      sync.Mutex
	segments []segment
	snapLSN  uint64 // LSN of the latest snapshot on disk
}

// Open replays the state directory (creating it if needed) and returns a
// Log positioned after the last valid record plus a Recovery describing
// what survived. The caller owns applying Recovery; the Log is immediately
// appendable.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	var recs []Record
	l, rec, err := open(dir, opts, nil, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rec.Records = recs
	return l, rec, nil
}

// open is Open with the scan handed to the caller: loaded, when set, sees
// the Recovery once its snapshot is chosen and before any segment is
// scanned, and visit sees each surviving record in LSN order as its frame
// is checked. An error from either fails the open before replay has
// changed anything on disk.
func open(dir string, opts Options, loaded func(*Recovery) error, visit func(Record) error) (*Log, *Recovery, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:   dir,
		opts:  opts,
		met:   newWALMetrics(opts.Metrics),
		cur:   newBatch(),
		fsync: (*os.File).Sync,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		wdone: make(chan struct{}),
	}
	rec, err := l.replay(loaded, visit)
	if err != nil {
		return nil, nil, err
	}
	if rec.TruncatedBytes > 0 || rec.DroppedSegments > 0 {
		l.met.replayTruncations.Inc()
	}
	l.met.segments.Set(float64(len(l.segments)))
	go l.writer()
	return l, rec, nil
}

func newBatch() *batch { return &batch{done: make(chan struct{})} }

// Append stages one record and blocks until the batch holding it is
// durably committed. It returns the record's LSN.
func (l *Log) Append(typ RecordType, payload []byte) (uint64, error) {
	lsn, b, err := l.stage(typ, payload)
	if err != nil {
		return 0, err
	}
	if err := b.wait(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// stage frames one record into the current batch, assigns its LSN and
// wakes the writer without waiting for it. A caller that folds records
// into state of its own stages under its own lock, so LSN order is fold
// order, and waits outside it, so concurrent callers share one fsync.
func (l *Log) stage(typ RecordType, payload []byte) (uint64, *batch, error) {
	if len(payload)+1 > MaxRecordBytes {
		return 0, nil, ErrTooLarge
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, nil, ErrClosed
	}
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return 0, nil, err
	}
	lsn := l.seq
	l.seq++
	b := l.cur
	b.buf = appendFrame(b.buf, typ, payload)
	b.n++
	b.last = lsn
	l.mu.Unlock()

	select {
	case l.kick <- struct{}{}:
	default:
	}
	return lsn, b, nil
}

// wait blocks until the batch is committed and reports the commit error.
func (b *batch) wait() error {
	<-b.done
	return b.err
}

// syncPoint blocks until every record staged so far is durable and
// returns the highest such LSN. On a log whose commit failed it returns
// the sticky error instead.
func (l *Log) syncPoint() (uint64, error) {
	l.mu.Lock()
	lsn, err := l.seq-1, l.broken
	// Batches commit in order, so the newest non-empty one covers lsn.
	b := l.cur
	if b.n == 0 {
		b = l.inflight
	}
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if b != nil {
		if err := b.wait(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// LastLSN returns the highest LSN assigned so far (0 if none). Assigned
// records may still be in flight; callers that need durability should hold
// their own Append result instead.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq - 1
}

// Close flushes pending appends, stops the writer, and closes the active
// segment. Further Appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if already {
		<-l.wdone
		return nil
	}
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.wdone
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		return err
	}
	return nil
}

func appendFrame(buf []byte, typ RecordType, payload []byte) []byte {
	body := len(payload) + 1
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(body))
	crc := crc32.Update(0, castagnoli, []byte{byte(typ)})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, byte(typ))
	return append(buf, payload...)
}

// writer is the group-commit goroutine: each wakeup swaps the current
// batch out and commits it with a single write+fsync.
func (l *Log) writer() {
	defer close(l.wdone)
	for {
		select {
		case <-l.stop:
			l.commitPending()
			return
		case <-l.kick:
			l.commitPending()
		}
	}
}

func (l *Log) commitPending() {
	for {
		l.mu.Lock()
		b := l.cur
		if b.n == 0 {
			l.mu.Unlock()
			return
		}
		l.cur = newBatch()
		l.inflight = b
		broken := l.broken
		l.mu.Unlock()

		// Fail-stop: batches staged while the failing commit was in flight
		// fail with it. The segment is never written again after a failure,
		// so nothing lands behind the rolled-back batch.
		if broken != nil {
			b.err = broken
		} else if err := l.commitBatch(b); err != nil {
			b.err = fmt.Errorf("wal: commit failed: %w", err)
			l.mu.Lock()
			l.broken = b.err
			l.mu.Unlock()
		}
		close(b.done)
	}
}

func (l *Log) commitBatch(b *batch) error {
	_, err := l.f.Write(b.buf)
	if err == nil && !l.opts.NoSync {
		if err = l.fsync(l.f); err == nil {
			l.met.fsyncs.Inc()
		}
	}
	if err != nil {
		// Best-effort rollback: the batch's callers are told it failed,
		// so a restart should not resurrect it from a completed write.
		_ = l.f.Truncate(l.segBytes)
		return err
	}
	l.segBytes += int64(len(b.buf))
	l.met.appends.Add(int64(b.n))
	l.met.appendBytes.Add(int64(len(b.buf)))
	l.met.batchRecords.Observe(float64(b.n))

	l.smu.Lock()
	l.segments[len(l.segments)-1].last = b.last
	l.smu.Unlock()

	if l.segBytes >= l.opts.SegmentBytes {
		return l.rotate(b.last + 1)
	}
	return nil
}

// rotate closes the active segment and starts a new one whose name carries
// the next LSN. Called only from the writer goroutine.
func (l *Log) rotate(nextLSN uint64) error {
	if err := l.f.Close(); err != nil {
		return err
	}
	f, path, err := createSegment(l.dir, nextLSN)
	if err != nil {
		return err
	}
	l.f = f
	l.segBytes = 0
	l.smu.Lock()
	l.segments = append(l.segments, segment{path: path, first: nextLSN, last: nextLSN - 1})
	l.met.segments.Set(float64(len(l.segments)))
	l.smu.Unlock()
	l.met.rotations.Inc()
	return nil
}

func createSegment(dir string, firstLSN uint64) (*os.File, string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, "", fmt.Errorf("wal: create segment: %w", err)
	}
	// The segment entry must be durable before records are acknowledged
	// out of it; a failed dirsync here poisons the append path instead
	// of being discovered at replay.
	if err := syncDir(dir); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return nil, "", fmt.Errorf("wal: sync dir: %w", err)
	}
	return f, path, nil
}

// syncDir fsyncs a directory so renames and creates are durable. A
// filesystem that does not support directory fsync (EINVAL/ENOTSUP) is
// not an error; anything else is real and must reach callers whose
// acknowledged state depends on the entry being durable — the fsyncerr
// audit found the old best-effort version silently swallowing failures
// between snapshot rename and segment compaction, a crash window that
// loses acknowledged writes.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// replay scans snapshots and segments, truncates any torn tail, and
// positions the log for appending. Once the newest valid snapshot is
// chosen it calls loaded (when set), then hands every valid record to
// visit as its segment is scanned; an error from either returns before
// any truncation or segment removal.
func (l *Log) replay(loaded func(*Recovery) error, visit func(Record) error) (*Recovery, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	var snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if first, ok := parseName(name, segPrefix, segSuffix); ok {
			segs = append(segs, segment{path: filepath.Join(l.dir, name), first: first})
		} else if lsn, ok := parseName(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })

	rec := &Recovery{}

	// Newest valid snapshot wins; corrupt ones are skipped, not fatal.
	for _, lsn := range snaps {
		covered, state, err := readSnapshotFile(l.snapPath(lsn))
		if err != nil {
			rec.SkippedSnapshots++
			continue
		}
		rec.SnapshotState = state
		rec.SnapshotLSN = lsn
		rec.SnapshotCovered = covered
		l.snapLSN = lsn
		break
	}
	// Compaction deleted only segments the snapshot it wrote covers, so
	// the log resumes by covered+1. Starting later means that snapshot is
	// gone or corrupt and the records between are lost: replaying the
	// suffix would recover a state that never existed.
	if len(segs) > 0 && segs[0].first > rec.SnapshotCovered+1 {
		return nil, fmt.Errorf("wal: log resumes at LSN %d but the newest valid snapshot covers only through LSN %d (%d corrupt snapshots skipped): records in between are lost",
			segs[0].first, rec.SnapshotCovered, rec.SkippedSnapshots)
	}
	if loaded != nil {
		if err := loaded(rec); err != nil {
			return nil, err
		}
	}

	// Scan segments in order. A tear truncates its segment and drops
	// everything after it; an LSN gap between segments (should not
	// happen — compaction only removes prefixes) is treated the same.
	last, lastRecord := uint64(0), uint64(0)
	for i := 0; i < len(segs); i++ {
		s := &segs[i]
		// The first listed segment chains off the snapshot (earlier
		// segments were compacted away); every later one must continue
		// exactly where its predecessor ended — even a predecessor that
		// recovered zero records, which happens when a crash truncated it
		// to nothing.
		if i > 0 && s.first != last+1 {
			for j := i; j < len(segs); j++ {
				if err := os.Remove(segs[j].path); err != nil {
					return nil, fmt.Errorf("wal: drop segment: %w", err)
				}
				rec.DroppedSegments++
			}
			segs = segs[:i]
			break
		}
		n, valid, size, err := scanSegment(s.path, s.first, visit)
		if err != nil {
			return nil, err
		}
		l.met.replayRecords.Add(int64(n))
		s.last = s.first + uint64(n) - 1
		last = s.last
		if n > 0 {
			lastRecord = s.last
		}
		if valid < size { // torn tail
			rec.TruncatedBytes += size - valid
			if err := os.Truncate(s.path, valid); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			for j := i + 1; j < len(segs); j++ {
				if err := os.Remove(segs[j].path); err != nil {
					return nil, fmt.Errorf("wal: drop segment: %w", err)
				}
				rec.DroppedSegments++
			}
			segs = segs[:i+1]
			break
		}
	}
	if rec.TruncatedBytes > 0 || rec.DroppedSegments > 0 {
		// Best-effort: a resurrected torn tail is re-truncated by the
		// next replay, so durability of the cleanup is not load-bearing.
		_ = syncDir(l.dir)
	}

	// Position the sequence after everything we know about: surviving
	// records and the snapshot LSN (segments may be fully compacted).
	l.seq = lastRecord + 1
	if rec.SnapshotLSN >= l.seq {
		l.seq = rec.SnapshotLSN + 1
	}

	// Open the active segment for appending, or start a fresh one.
	if len(segs) > 0 {
		act := segs[len(segs)-1]
		f, err := os.OpenFile(act.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		l.f = f
		l.segBytes = st.Size()
		l.segments = segs
	} else {
		f, path, err := createSegment(l.dir, l.seq)
		if err != nil {
			return nil, err
		}
		l.f = f
		l.segBytes = 0
		l.segments = []segment{{path: path, first: l.seq, last: l.seq - 1}}
	}
	return rec, nil
}

// scanSegment hands visit each record of one segment file whose frame
// checks, in order; payloads alias the buffer the segment was read into.
// It returns the number of records visited, the byte offset of the last
// valid frame end, and the file size; valid < size means a torn tail. A
// visit error ends the scan and is returned as is.
func scanSegment(path string, firstLSN uint64, visit func(Record) error) (n int, valid, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: read segment: %w", err)
	}
	off := 0
	for {
		if len(data)-off < frameHeaderBytes {
			break
		}
		body := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if body < 1 || body > MaxRecordBytes || len(data)-off-frameHeaderBytes < body {
			break
		}
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		frame := data[off+frameHeaderBytes : off+frameHeaderBytes+body]
		if crc32.Checksum(frame, castagnoli) != want {
			break
		}
		if err := visit(Record{LSN: firstLSN + uint64(n), Type: RecordType(frame[0]), Payload: frame[1:body:body]}); err != nil {
			return n, int64(off), int64(len(data)), err
		}
		n++
		off += frameHeaderBytes + body
	}
	return n, int64(off), int64(len(data)), nil
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &v); err != nil {
		return 0, false
	}
	return v, true
}

func (l *Log) snapPath(lsn uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix))
}

// Status is a point-in-time summary for the wal-status RPC and lwfctl.
type Status struct {
	Dir         string `json:"dir,omitempty"`
	LastLSN     uint64 `json:"lastLSN"`
	SnapshotLSN uint64 `json:"snapshotLSN"`
	Segments    int    `json:"segments"`
	TotalBytes  int64  `json:"totalBytes"`
	Appends     int64  `json:"appends"`
	AppendBytes int64  `json:"appendBytes"`
	Fsyncs      int64  `json:"fsyncs"`
	Snapshots   int64  `json:"snapshots"`
	Compactions int64  `json:"compactions"`
	// Broken is the sticky commit failure, empty while the log is healthy:
	// set, the daemon refuses every further durable mutation and
	// checkpoint until restarted.
	Broken string `json:"broken,omitempty"`
}

// Status reports the log's current shape. TotalBytes stats the live
// segment files; failures there degrade to 0 rather than erroring.
func (l *Log) Status() Status {
	l.mu.Lock()
	lastLSN, broken := l.seq-1, l.broken
	l.mu.Unlock()
	st := Status{
		Dir:         l.dir,
		LastLSN:     lastLSN,
		Appends:     l.met.appends.Value(),
		AppendBytes: l.met.appendBytes.Value(),
		Fsyncs:      l.met.fsyncs.Value(),
		Snapshots:   l.met.snapshots.Value(),
		Compactions: l.met.compactions.Value(),
	}
	if broken != nil {
		st.Broken = broken.Error()
	}
	l.smu.Lock()
	st.SnapshotLSN = l.snapLSN
	st.Segments = len(l.segments)
	for _, s := range l.segments {
		if fi, err := os.Stat(s.path); err == nil {
			st.TotalBytes += fi.Size()
		}
	}
	l.smu.Unlock()
	return st
}

type walMetrics struct {
	appends           *telemetry.Counter
	appendBytes       *telemetry.Counter
	fsyncs            *telemetry.Counter
	rotations         *telemetry.Counter
	snapshots         *telemetry.Counter
	compactions       *telemetry.Counter
	replayRecords     *telemetry.Counter
	replayTruncations *telemetry.Counter
	segments          *telemetry.Gauge
	batchRecords      *telemetry.Distribution
}

func newWALMetrics(reg *telemetry.Registry) *walMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &walMetrics{
		appends:           reg.Counter("wal_appends_total"),
		appendBytes:       reg.Counter("wal_append_bytes_total"),
		fsyncs:            reg.Counter("wal_fsyncs_total"),
		rotations:         reg.Counter("wal_segment_rotations_total"),
		snapshots:         reg.Counter("wal_snapshots_total"),
		compactions:       reg.Counter("wal_compacted_segments_total"),
		replayRecords:     reg.Counter("wal_replay_records_total"),
		replayTruncations: reg.Counter("wal_replay_truncations_total"),
		segments:          reg.Gauge("wal_segments"),
		batchRecords:      reg.Distribution("wal_batch_records", 1, 2, 4, 8, 16, 32, 64, 128),
	}
}
