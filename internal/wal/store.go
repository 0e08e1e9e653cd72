package wal

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"lightwave/internal/core"
	"lightwave/internal/fleet"
	"lightwave/internal/sched"
)

// Store binds a Log to the control plane's three journal sources: the
// fleet intent store (typed state records, folded into a materialized
// FleetState), the slice scheduler (typed input records, replayed through
// the deterministic scheduler), and lwfd's fabric RPC server (raw command
// records, re-executed verbatim). Each snapshot section is one source's
// state together with the LSN that state covers, read under the lock that
// orders that source's appends; recovery loads the state and replays the
// source's records after that LSN. Store implements fleet.Journal,
// sched.Journal, the ctlrpc journal seam, and Snapshotter, so a snapshot
// can compact the log without quiescing any of the sources.
type Store struct {
	log *Log

	mu           sync.Mutex
	fleetState   *FleetState
	lastFleetLSN uint64
	// maxTypeLSN tracks the highest LSN ever seen per record type
	// (replayed or appended): a type present in the log but without an
	// attached snapshot section pins compaction so its records survive
	// for a future boot that does attach the section.
	maxTypeLSN [maxRecordType + 1]uint64
	suppress   bool
	schedSrc   *sched.Scheduler
	fabricSrc  FabricSource

	// Recovery leftovers, written by OpenStore and consumed by
	// RecoverSched / RecoverFabric: each replayed section's snapshot
	// state, the LSN it covers, and the records after that LSN.
	schedSnap, fabricSnap json.RawMessage
	schedLSN, fabricLSN   uint64
	schedTail             []logged[sched.JournalEntry]
	cmdTail               []logged[Command]

	replayRecords   int
	replayDecoded   int // records past their section's LSN, whose payload replay decoded
	replayErrors    int
	truncatedBytes  int64
	droppedSegments int

	ckptMu sync.Mutex
}

// logged is one recovered record past its section's snapshot.
type logged[E any] struct {
	lsn uint64
	e   E
}

// FabricSource is lwfd's journal source, the fabric RPC server. It
// exports its fabric state with the LSN of the last command that state
// holds, read under the lock every journaled command keeps from execution
// through its append; recovery imports a snapshot's state at its LSN and
// re-executes each later command through it.
type FabricSource interface {
	ExportFabric() (core.FabricState, uint64)
	ImportFabric(state core.FabricState, lsn uint64) error
	ApplyCommand(lsn uint64, method string, params json.RawMessage) error
}

// storeSnapshot is the snapshot payload: one optional section per source,
// each with the LSN its content covers.
type storeSnapshot struct {
	FleetLSN  uint64          `json:"fleetLSN"`
	Fleet     json.RawMessage `json:"fleet,omitempty"`
	SchedLSN  uint64          `json:"schedLSN,omitempty"`
	Sched     json.RawMessage `json:"sched,omitempty"`
	FabricLSN uint64          `json:"fabricLSN,omitempty"`
	Fabric    json.RawMessage `json:"fabric,omitempty"`
	// CmdLSN and Commands are the section lwfd wrote before it snapshotted
	// fabric state: a replayable command list. They are read only to
	// refuse it.
	CmdLSN   uint64          `json:"cmdLSN,omitempty"`
	Commands json.RawMessage `json:"commands,omitempty"`
}

// OpenStore opens (or creates) a state directory, replays the snapshot
// and log tail into a materialized fleet state plus pending sched/command
// tails, and returns a store ready to journal. Each record is folded as
// its segment is scanned; a refused open leaves the directory untouched.
func OpenStore(dir string, opts Options) (*Store, error) {
	st := &Store{fleetState: NewFleetState()}
	log, rec, err := open(dir, opts, st.loadSnapshot, st.replayRecord)
	if err != nil {
		return nil, err
	}
	st.log = log
	st.truncatedBytes = rec.TruncatedBytes
	st.droppedSegments = rec.DroppedSegments
	return st, nil
}

// loadSnapshot loads the recovered snapshot's sections, before any
// record is replayed on top of them.
func (st *Store) loadSnapshot(rec *Recovery) error {
	if rec.SnapshotState == nil {
		return nil
	}
	var snap storeSnapshot
	if err := json.Unmarshal(rec.SnapshotState, &snap); err != nil {
		return fmt.Errorf("wal: snapshot payload: %w", err)
	}
	if snap.Commands != nil || snap.CmdLSN != 0 {
		return errors.New(`wal: snapshot carries lwfd's command-list section ("commands"), which predates fabric-state snapshots, so the state directory cannot be read`)
	}
	if snap.Fleet != nil {
		fs, err := DecodeFleetState(snap.Fleet)
		if err != nil {
			return err
		}
		st.fleetState = fs
	}
	st.lastFleetLSN = snap.FleetLSN
	st.schedSnap, st.schedLSN = snap.Sched, snap.SchedLSN
	st.fabricSnap, st.fabricLSN = snap.Fabric, snap.FabricLSN
	return nil
}

// replayRecord folds one recovered record the snapshot sections do not
// cover. A malformed payload is counted and skipped; one with an unknown
// version byte fails the open, because every record after it would be
// skipped too.
func (st *Store) replayRecord(r Record) error {
	st.replayRecords++
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
		if r.LSN <= st.schedLSN {
			return nil
		}
		var e sched.JournalEntry
		if e, err = decodeSched(r.Payload); err == nil {
			st.schedTail = append(st.schedTail, logged[sched.JournalEntry]{r.LSN, e})
		}
	case RecordCommand:
		if r.LSN <= st.fabricLSN {
			return nil
		}
		var c Command
		if c, err = decodeCommand(r.Payload); err == nil {
			st.cmdTail = append(st.cmdTail, logged[Command]{r.LSN, c})
		}
	}
	st.replayDecoded++
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
	b, err := encodeSched(e)
	if err != nil {
		return 0, err
	}
	return st.appendInput(RecordSched, b)
}

// JournalCommand journals one executed RPC command (the ctlrpc server
// seam) and returns its LSN. The command is durable before the RPC
// response is written.
func (st *Store) JournalCommand(method string, params json.RawMessage) (uint64, error) {
	b, err := encodeCommand(Command{Method: method, Params: params})
	if err != nil {
		return 0, err
	}
	return st.appendInput(RecordCommand, b)
}

// appendInput makes one sched or command record durable and returns its
// LSN, or 0 while recovery suppresses appends. The caller records the LSN
// under its own lock: that source's export reports it.
func (st *Store) appendInput(t RecordType, b []byte) (uint64, error) {
	st.mu.Lock()
	suppress := st.suppress
	st.mu.Unlock()
	if suppress {
		return 0, nil
	}
	lsn, err := st.log.Append(t, b)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	st.maxTypeLSN[t] = max(st.maxTypeLSN[t], lsn)
	st.mu.Unlock()
	return lsn, nil
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
// counted in failed. The restored scheduler's exported state then joins
// every future snapshot; on a fresh store only that happens.
func (st *Store) RecoverSched(s *sched.Scheduler) (applied, failed int, err error) {
	if st.schedSnap != nil {
		var state sched.State
		if err := json.Unmarshal(st.schedSnap, &state); err != nil {
			return 0, 0, fmt.Errorf("wal: sched snapshot: %w", err)
		}
		if err := s.ImportState(state); err != nil {
			return 0, 0, err
		}
	}
	applied, failed = replay(st.schedTail, s.Apply)
	st.mu.Lock()
	st.schedSrc = s
	st.mu.Unlock()
	return applied, failed, nil
}

// RecoverFabric restores lwfd's freshly built fabric: import the
// snapshot's fabric state at the LSN it covers, then re-execute every
// journaled command after that LSN. The fabric is deterministic, so a
// command that failed live fails again, with the same partial effect, and
// is counted in failed. The restored source's exported state then joins
// every future snapshot.
func (st *Store) RecoverFabric(src FabricSource) (applied, failed int, err error) {
	if st.fabricSnap != nil {
		var state core.FabricState
		if err := json.Unmarshal(st.fabricSnap, &state); err != nil {
			return 0, 0, fmt.Errorf("wal: fabric snapshot: %w", err)
		}
		if err := src.ImportFabric(state, st.fabricLSN); err != nil {
			return 0, 0, fmt.Errorf("wal: fabric snapshot: %w", err)
		}
	}
	applied, failed = replay(st.cmdTail, func(lsn uint64, c Command) error {
		return src.ApplyCommand(lsn, c.Method, c.Params)
	})
	st.mu.Lock()
	st.fabricSrc = src
	st.mu.Unlock()
	return applied, failed, nil
}

// replay hands each recovered record to apply in log order.
func replay[E any](tail []logged[E], apply func(uint64, E) error) (applied, failed int) {
	for _, r := range tail {
		if apply(r.lsn, r.e) != nil {
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

	// The replayed sections first, without holding st.mu: each source
	// reads its state and LSN under its own lock, which a mutator may hold
	// while it waits in JournalSched / JournalCommand → st.mu.
	st.mu.Lock()
	schedSrc, fabricSrc := st.schedSrc, st.fabricSrc
	st.mu.Unlock()
	if schedSrc != nil {
		state := schedSrc.ExportState()
		b, err := json.Marshal(state)
		if err != nil {
			return nil, 0, err
		}
		snap.Sched, snap.SchedLSN = b, state.WALLSN
	}
	if fabricSrc != nil {
		state, lsn := fabricSrc.ExportFabric()
		b, err := json.Marshal(state)
		if err != nil {
			return nil, 0, err
		}
		snap.Fabric, snap.FabricLSN = b, lsn
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
	floor(maxType[RecordSched], schedSrc != nil, snap.SchedLSN)
	floor(maxType[RecordCommand], fabricSrc != nil, snap.FabricLSN)

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
