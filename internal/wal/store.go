package wal

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"lightwave/internal/fleet"
	"lightwave/internal/sched"
)

// Store binds a Log to the control plane's three journal sources: the
// fleet intent store (typed state records, folded into a materialized
// FleetState), the slice scheduler (typed input records, replayed through
// the deterministic scheduler), and the per-fabric RPC server (raw
// command records, re-executed verbatim). It implements fleet.Journal,
// sched.Journal, the ctlrpc journal seam, and Snapshotter, and tracks
// per-section LSNs so a snapshot can compact the log without quiescing
// any of the sources.
type Store struct {
	log *Log

	mu           sync.Mutex
	fleetState   *FleetState
	lastFleetLSN uint64
	lastSchedLSN uint64
	lastCmdLSN   uint64
	// maxTypeLSN tracks the highest LSN ever seen per record type
	// (replayed or appended): a type present in the log but without an
	// attached snapshot section pins compaction so its records survive
	// for a future boot that does attach the section.
	maxTypeLSN [maxRecordType + 1]uint64
	suppress   bool
	schedSrc   *sched.Scheduler
	fabricSnap func() ([]Command, error)

	// Recovery leftovers, consumed by RecoverSched / ReplayCommands.
	snapSched    json.RawMessage
	schedTail    []sched.JournalEntry
	snapCommands []Command
	cmdTail      []Command

	replayRecords   int
	replayErrors    int
	truncatedBytes  int64
	droppedSegments int

	ckptMu sync.Mutex
}

// storeSnapshot is the snapshot payload: one optional section per source,
// each with the LSN its content covers.
type storeSnapshot struct {
	FleetLSN uint64          `json:"fleetLSN"`
	Fleet    json.RawMessage `json:"fleet,omitempty"`
	SchedLSN uint64          `json:"schedLSN,omitempty"`
	Sched    json.RawMessage `json:"sched,omitempty"`
	CmdLSN   uint64          `json:"cmdLSN,omitempty"`
	Commands []Command       `json:"commands,omitempty"`
}

// OpenStore opens (or creates) a state directory, replays the snapshot
// and log tail into a materialized fleet state plus pending sched/command
// tails, and returns a store ready to journal.
func OpenStore(dir string, opts Options) (*Store, error) {
	log, rec, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	st := &Store{
		log:             log,
		fleetState:      NewFleetState(),
		replayRecords:   len(rec.Records),
		truncatedBytes:  rec.TruncatedBytes,
		droppedSegments: rec.DroppedSegments,
	}
	var snapSchedLSN uint64
	if rec.SnapshotState != nil {
		var snap storeSnapshot
		if err := json.Unmarshal(rec.SnapshotState, &snap); err != nil {
			_ = log.Close()
			return nil, fmt.Errorf("wal: snapshot payload: %w", err)
		}
		if snap.Fleet != nil {
			fs, err := DecodeFleetState(snap.Fleet)
			if err != nil {
				_ = log.Close()
				return nil, err
			}
			st.fleetState = fs
		}
		st.lastFleetLSN = snap.FleetLSN
		st.snapSched = snap.Sched
		snapSchedLSN = snap.SchedLSN
		st.lastSchedLSN = snap.SchedLSN
		st.snapCommands = snap.Commands
		st.lastCmdLSN = snap.CmdLSN
	}
	for _, r := range rec.Records {
		if err := st.replayRecord(r, snapSchedLSN); err != nil {
			_ = log.Close()
			return nil, err
		}
	}
	return st, nil
}

// replayRecord folds one recovered record the snapshot sections do not
// cover. A malformed payload is counted and skipped; one with an unknown
// version byte fails the open, because every record after it would be
// skipped too.
func (st *Store) replayRecord(r Record, snapSchedLSN uint64) error {
	if r.Type > maxRecordType || r.Type == 0 {
		st.replayErrors++
		return nil
	}
	if r.LSN > st.maxTypeLSN[r.Type] {
		st.maxTypeLSN[r.Type] = r.LSN
	}
	var err error
	switch r.Type {
	case RecordFleet:
		if r.LSN <= st.lastFleetLSN {
			return nil
		}
		var e fleet.JournalEntry
		if e, err = decodeFleet(r.Payload); err == nil {
			st.fleetState.Apply(e)
			st.lastFleetLSN = r.LSN
		}
	case RecordSched:
		if r.LSN <= snapSchedLSN {
			return nil
		}
		var e sched.JournalEntry
		if e, err = decodeSched(r.Payload); err == nil {
			st.schedTail = append(st.schedTail, e)
			st.lastSchedLSN = r.LSN
		}
	case RecordCommand:
		if r.LSN <= st.lastCmdLSN {
			return nil
		}
		var c Command
		if c, err = decodeCommand(r.Payload); err == nil {
			st.cmdTail = append(st.cmdTail, c)
			st.lastCmdLSN = r.LSN
		}
	}
	if errors.Is(err, errVersion) {
		return fmt.Errorf("wal: record at LSN %d predates binary records, so the state directory cannot be read: %w", r.LSN, err)
	}
	if err != nil {
		st.replayErrors++
	}
	return nil
}

// Close stops the underlying log. It does not snapshot; callers wanting a
// clean-shutdown snapshot call Checkpoint first.
func (st *Store) Close() error { return st.log.Close() }

// Log exposes the underlying log (status, tests).
func (st *Store) Log() *Log { return st.log }

// BeginRecovery suppresses journal appends: entries generated while the
// daemon re-registers pods and replays recovered state still fold into
// the materialized fleet state (keeping it accurate) but are not written
// to disk — the log already contains them.
func (st *Store) BeginRecovery() {
	st.mu.Lock()
	st.suppress = true
	st.mu.Unlock()
}

// EndRecovery resumes journaling.
func (st *Store) EndRecovery() {
	st.mu.Lock()
	st.suppress = false
	st.mu.Unlock()
}

// JournalFleet implements fleet.Journal and is safe for concurrent
// callers. The record is staged and folded into the materialized state
// under st.mu, so the state is always the fold of an LSN prefix and
// lastFleetLSN names that prefix; the wait for durability happens outside
// it, so concurrent callers share one fsync. A failed commit leaves the
// fold ahead of disk, which is why the log then refuses every further
// append and checkpoint: only a reopen is authoritative again.
func (st *Store) JournalFleet(e fleet.JournalEntry) error {
	b, err := encodeFleet(e)
	if err != nil {
		return err
	}
	st.mu.Lock()
	if st.suppress {
		st.fleetState.Apply(e)
		st.mu.Unlock()
		return nil
	}
	lsn, staged, err := st.log.stage(RecordFleet, b)
	if err != nil {
		st.mu.Unlock()
		return err
	}
	st.fleetState.Apply(e)
	st.lastFleetLSN = lsn
	st.maxTypeLSN[RecordFleet] = lsn
	st.mu.Unlock()
	return staged.wait()
}

// JournalSched implements sched.Journal.
func (st *Store) JournalSched(e sched.JournalEntry) (uint64, error) {
	st.mu.Lock()
	if st.suppress {
		st.mu.Unlock()
		return 0, nil
	}
	st.mu.Unlock()
	b, err := encodeSched(e)
	if err != nil {
		return 0, err
	}
	lsn, err := st.log.Append(RecordSched, b)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	if lsn > st.lastSchedLSN {
		st.lastSchedLSN = lsn
	}
	if lsn > st.maxTypeLSN[RecordSched] {
		st.maxTypeLSN[RecordSched] = lsn
	}
	st.mu.Unlock()
	return lsn, nil
}

// JournalCommand journals one successfully executed RPC command (the
// ctlrpc server seam). The command is durable before the RPC response is
// written.
func (st *Store) JournalCommand(method string, params json.RawMessage) error {
	st.mu.Lock()
	if st.suppress {
		st.mu.Unlock()
		return nil
	}
	st.mu.Unlock()
	b, err := encodeCommand(Command{Method: method, Params: params})
	if err != nil {
		return err
	}
	lsn, err := st.log.Append(RecordCommand, b)
	if err != nil {
		return err
	}
	st.mu.Lock()
	if lsn > st.lastCmdLSN {
		st.lastCmdLSN = lsn
	}
	if lsn > st.maxTypeLSN[RecordCommand] {
		st.maxTypeLSN[RecordCommand] = lsn
	}
	st.mu.Unlock()
	return nil
}

// AttachSched registers the scheduler whose exported state joins future
// snapshots. Call once the scheduler exists (recovery included).
func (st *Store) AttachSched(s *sched.Scheduler) {
	st.mu.Lock()
	st.schedSrc = s
	st.mu.Unlock()
}

// SetFabricSnapshot registers a function that captures the fabric's
// current state as a command list (install-cube / ensure / fail-cube);
// replaying those commands on an empty fabric reproduces the state. Used
// by lwfd, whose journal source is raw RPC commands.
func (st *Store) SetFabricSnapshot(fn func() ([]Command, error)) {
	st.mu.Lock()
	st.fabricSnap = fn
	st.mu.Unlock()
}

// RecoverFleet pushes the recovered intent store into a live manager.
// Call between BeginRecovery and EndRecovery, after the daemon has added
// its pods.
func (st *Store) RecoverFleet(m *fleet.Manager) error {
	st.mu.Lock()
	fs := st.fleetState
	st.mu.Unlock()
	return fs.ApplyTo(m)
}

// RecoverSched restores a freshly constructed scheduler: import the
// snapshot's state export, then replay the journaled input tail through
// the ordinary mutators. Replay errors are tolerated (the cluster may
// reject an intent mid-recovery; reconciliation converges later) and
// counted in failed.
func (st *Store) RecoverSched(s *sched.Scheduler) (applied, failed int, err error) {
	st.mu.Lock()
	raw := st.snapSched
	tail := st.schedTail
	st.mu.Unlock()
	if raw != nil {
		var state sched.State
		if err := json.Unmarshal(raw, &state); err != nil {
			return 0, 0, fmt.Errorf("wal: sched snapshot: %w", err)
		}
		if err := s.ImportState(state); err != nil {
			return 0, 0, err
		}
	}
	for _, e := range tail {
		if err := s.Apply(e); err != nil {
			failed++
			continue
		}
		applied++
	}
	return applied, failed, nil
}

// ReplayCommands re-executes the snapshot's captured command list and the
// journaled command tail through apply. Errors are tolerated and counted
// (a fail-cube may race a snapshot capture and replay as a no-op error).
func (st *Store) ReplayCommands(apply func(method string, params json.RawMessage) error) (applied, failed int) {
	st.mu.Lock()
	cmds := make([]Command, 0, len(st.snapCommands)+len(st.cmdTail))
	cmds = append(cmds, st.snapCommands...)
	cmds = append(cmds, st.cmdTail...)
	st.mu.Unlock()
	for _, c := range cmds {
		if err := apply(c.Method, c.Params); err != nil {
			failed++
			continue
		}
		applied++
	}
	return applied, failed
}

// Snapshot implements Snapshotter: capture every attached section and
// compute the covered LSN as the weakest section floor, so compaction
// never deletes a record some section still needs.
func (st *Store) Snapshot() ([]byte, uint64, error) {
	var snap storeSnapshot

	// Sched section first, without holding st.mu: ExportState takes the
	// scheduler lock, which may be held by a mutator blocked in
	// JournalSched → st.mu.
	st.mu.Lock()
	schedSrc := st.schedSrc
	fabricSnap := st.fabricSnap
	st.mu.Unlock()
	schedAttached := schedSrc != nil
	if schedAttached {
		state := schedSrc.ExportState()
		b, err := json.Marshal(state)
		if err != nil {
			return nil, 0, err
		}
		snap.Sched = b
		snap.SchedLSN = state.WALLSN
	}

	// Command section: read the covered LSN before capturing, so a
	// command landing mid-capture replays on top (idempotently) rather
	// than being lost.
	cmdAttached := fabricSnap != nil
	if cmdAttached {
		st.mu.Lock()
		snap.CmdLSN = st.lastCmdLSN
		st.mu.Unlock()
		cmds, err := fabricSnap()
		if err != nil {
			return nil, 0, err
		}
		snap.Commands = cmds
	}

	st.mu.Lock()
	fb, err := st.fleetState.Encode()
	if err != nil {
		st.mu.Unlock()
		return nil, 0, err
	}
	snap.Fleet = fb
	snap.FleetLSN = st.lastFleetLSN
	maxType := st.maxTypeLSN
	st.mu.Unlock()

	covered := st.log.LastLSN()
	floor := func(present uint64, attached bool, sectionLSN uint64) {
		if present == 0 {
			return // no records of this type: nothing to protect
		}
		f := uint64(0)
		if attached {
			f = sectionLSN
		}
		if f < covered {
			covered = f
		}
	}
	floor(maxType[RecordFleet], true, snap.FleetLSN)
	floor(maxType[RecordSched], schedAttached, snap.SchedLSN)
	floor(maxType[RecordCommand], cmdAttached, snap.CmdLSN)

	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, 0, err
	}
	return payload, covered, nil
}

// Checkpoint captures a snapshot and compacts the log. Serialized: a
// periodic checkpoint and the shutdown checkpoint never interleave.
func (st *Store) Checkpoint() error {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	return st.log.Checkpoint(st)
}

// FleetDigest hashes the materialized intent store's canonical encoding.
func (st *Store) FleetDigest() (string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	d, err := st.fleetState.Digest()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(d[:]), nil
}

// FleetStateCopy returns a deep copy of the materialized intent store.
func (st *Store) FleetStateCopy() (*FleetState, error) {
	st.mu.Lock()
	b, err := st.fleetState.Encode()
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return DecodeFleetState(b)
}

// StoreStatus extends the log status with replay and content summaries.
type StoreStatus struct {
	Log             Status
	ReplayRecords   int
	ReplayErrors    int
	TruncatedBytes  int64
	DroppedSegments int
	FleetPods       int
	FleetSlices     int
	FleetDigest     string
}

// Status summarizes the store for wal-status.
func (st *Store) Status() StoreStatus {
	out := StoreStatus{Log: st.log.Status()}
	st.mu.Lock()
	out.ReplayRecords = st.replayRecords
	out.ReplayErrors = st.replayErrors
	out.TruncatedBytes = st.truncatedBytes
	out.DroppedSegments = st.droppedSegments
	out.FleetPods = len(st.fleetState.Pods)
	for _, p := range st.fleetState.Pods {
		out.FleetSlices += len(p.Slices)
	}
	if d, err := st.fleetState.Digest(); err == nil {
		out.FleetDigest = hex.EncodeToString(d[:])
	}
	st.mu.Unlock()
	return out
}
