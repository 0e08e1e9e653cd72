package wal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"lightwave/internal/fleet"
	"lightwave/internal/walrec"
)

// Store binds a Log to the control plane's journal sections: the fleet
// intent store's, built in and folded into a materialized FleetState, and
// the owner sections (Section) of the slice scheduler and lwfd's fabric
// server. Each snapshot section is one source's state together with the
// LSN that state covers, read under the lock that orders that source's
// appends; recovery loads the state and replays the source's records after
// that LSN. Store implements fleet.Journal and Snapshotter, so a snapshot
// can compact the log without quiescing any of the sources.
type Store struct {
	log *Log

	mu         sync.Mutex
	fleetState *FleetState
	// maxTypeLSN tracks the highest LSN ever seen per record type
	// (replayed or appended): a type present in the log but without an
	// attached snapshot section pins compaction so its records survive
	// for a future boot that does attach the section.
	maxTypeLSN [maxRecordType + 1]uint64
	suppress   bool
	sections   [maxRecordType + 1]section // by record type

	replayRecords   int
	replayDecoded   int // records past their section's LSN, which replay decodes
	replayErrors    int
	truncatedBytes  int64
	droppedSegments int

	ckptMu sync.Mutex
}

// Section is a journal source that owns its records' codec and its
// snapshot state. Attach restores one and hands it the journal its
// records go through.
type Section interface {
	// Export returns the section's state and the LSN of the last record
	// it holds, read together under the lock that orders the owner's
	// appends.
	Export() (state []byte, lsn uint64, err error)
	// Load imports a snapshot's state, which covers the log up to lsn,
	// into the fresh owner.
	Load(state []byte, lsn uint64) error
	// Replay re-executes the record appended at lsn. A payload the owner
	// cannot decode is reported wrapping walrec.ErrMalformed.
	Replay(lsn uint64, payload []byte) error
}

// section is one record type's snapshot section: the LSN its state covers
// (the fleet's follows its fold) and, for an owner section, the recovery
// leftovers until Attach.
type section struct {
	src   Section         // the owner, once attached
	state json.RawMessage // the snapshot's state, until Attach
	lsn   uint64
	tail  []Record // records after lsn, copied out of their segment, until Attach
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

// section maps an owner's record type to its snapshot key and fields; a
// type without one has no owner section.
func (s *storeSnapshot) section(t RecordType) (key string, state *json.RawMessage, lsn *uint64) {
	switch t {
	case RecordSched:
		return "sched", &s.Sched, &s.SchedLSN
	case RecordCommand:
		return "fabric", &s.Fabric, &s.FabricLSN
	}
	return "", nil, nil
}

// OpenStore opens (or creates) a state directory, replays the snapshot
// and log tail into a materialized fleet state plus each owner section's
// pending state and tail, and returns a store ready to journal. Each
// record is folded or kept as its segment is scanned; a refused open
// leaves the directory untouched.
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
	st.sections[RecordFleet].lsn = snap.FleetLSN
	for t := range st.sections {
		if _, state, lsn := snap.section(RecordType(t)); state != nil {
			st.sections[t].state, st.sections[t].lsn = *state, *lsn
		}
	}
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
	sec := &st.sections[r.Type]
	if r.LSN <= sec.lsn {
		return nil
	}
	var err error
	if r.Type == RecordFleet {
		var e fleet.JournalEntry
		if e, err = decodeFleet(r.Payload); err == nil {
			st.fleetState.Apply(e)
			sec.lsn = r.LSN
		}
	} else if err = walrec.NewDecoder(r.Payload).Err(); !errors.Is(err, walrec.ErrVersion) {
		// An owner section's record waits for Attach, where its owner
		// decodes it; only the version byte is read now, so a refused
		// directory is refused before it changes. The payload aliases the
		// segment buffer, so it is copied.
		r.Payload = bytes.Clone(r.Payload)
		sec.tail, err = append(sec.tail, r), nil
	}
	st.replayDecoded++
	if errors.Is(err, walrec.ErrVersion) {
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
// under st.mu, so the state is always the fold of an LSN prefix and the
// fleet section's LSN names that prefix; the wait for durability happens
// outside it, so concurrent callers share one fsync. A failed commit
// leaves the fold ahead of disk, which is why the log then refuses every
// further append and checkpoint: only a reopen is authoritative again.
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
	st.sections[RecordFleet].lsn = lsn
	st.maxTypeLSN[RecordFleet] = lsn
	st.mu.Unlock()
	return staged.wait()
}

// Journal appends one owner section's records; Attach hands it to the
// owner.
type Journal struct {
	st *Store
	t  RecordType
}

// Append makes one record durable and returns its LSN, or 0 while
// recovery suppresses appends. The owner records the LSN under the lock
// its Export reads. Like JournalFleet it stages under st.mu, so a snapshot
// sees the record's type present whenever its covered LSN reaches it.
func (j Journal) Append(payload []byte) (uint64, error) {
	st := j.st
	st.mu.Lock()
	if st.suppress {
		st.mu.Unlock()
		return 0, nil
	}
	lsn, staged, err := st.log.stage(j.t, payload)
	if err == nil {
		st.maxTypeLSN[j.t] = lsn
	}
	st.mu.Unlock()
	if err == nil {
		err = staged.wait()
	}
	return lsn, err
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

// Attach restores a fresh owner's section of record type t: it loads
// the snapshot's state, then replays the type's records after it through
// s.Replay. A record the owner cannot decode is counted in the replay
// errors and skipped; one it refuses (the cluster may reject an input
// mid-recovery, and a deterministic fabric refuses again what it refused
// live) is counted in failed. From then on the owner's state joins every
// snapshot, and it appends its records through the returned Journal.
func (st *Store) Attach(t RecordType, s Section) (j Journal, applied, failed int, err error) {
	key, _, _ := new(storeSnapshot).section(t)
	if key == "" {
		return Journal{}, 0, 0, fmt.Errorf("wal: record type %d has no owner section", t)
	}
	sec := &st.sections[t]
	if sec.state != nil {
		if err := s.Load(sec.state, sec.lsn); err != nil {
			return Journal{}, 0, 0, fmt.Errorf("wal: %s snapshot: %w", key, err)
		}
	}
	malformed := 0
	for _, r := range sec.tail {
		switch err := s.Replay(r.LSN, r.Payload); {
		case err == nil:
			applied++
		case errors.Is(err, walrec.ErrMalformed):
			malformed++
		default:
			failed++
		}
	}
	st.mu.Lock()
	st.replayErrors += malformed
	sec.src, sec.state, sec.tail = s, nil, nil
	st.mu.Unlock()
	return Journal{st, t}, applied, failed, nil
}

// Snapshot implements Snapshotter: capture every attached section and
// compute the covered LSN as the weakest section floor, so compaction
// never deletes a record some section still needs.
func (st *Store) Snapshot() ([]byte, uint64, error) {
	var snap storeSnapshot
	var floors [maxRecordType + 1]uint64 // a section's LSN; 0 for one not attached

	// The owner sections first, without holding st.mu: each owner reads
	// its state and LSN under its own lock, which a mutator may hold while
	// it waits in Journal.Append → st.mu.
	var srcs [maxRecordType + 1]Section
	st.mu.Lock()
	for t := range st.sections {
		srcs[t] = st.sections[t].src
	}
	st.mu.Unlock()
	for t, src := range srcs {
		if src == nil {
			continue
		}
		state, lsn, err := src.Export()
		if err != nil {
			return nil, 0, err
		}
		_, s, l := snap.section(RecordType(t))
		*s, *l, floors[t] = state, lsn, lsn
	}

	st.mu.Lock()
	fb, err := st.fleetState.Encode()
	if err != nil {
		st.mu.Unlock()
		return nil, 0, err
	}
	snap.Fleet, snap.FleetLSN = fb, st.sections[RecordFleet].lsn
	floors[RecordFleet] = snap.FleetLSN
	maxType := st.maxTypeLSN
	// Every store append stages under st.mu, so maxType knows the type of
	// every record up to covered.
	covered := st.log.LastLSN()
	st.mu.Unlock()

	// A type with records in the log pins the floor at its section's LSN.
	for t, present := range maxType {
		if present != 0 {
			covered = min(covered, floors[t])
		}
	}

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

// StoreStatus extends the log status with replay and content summaries,
// and is the wal-status wire form.
type StoreStatus struct {
	Status
	ReplayRecords   int    `json:"replayRecords"`
	ReplayErrors    int    `json:"replayErrors"`
	TruncatedBytes  int64  `json:"truncatedBytes"`
	DroppedSegments int    `json:"droppedSegments"`
	FleetPods       int    `json:"fleetPods"`
	FleetSlices     int    `json:"fleetSlices"`
	FleetDigest     string `json:"fleetDigest,omitempty"`
}

// Status summarizes the store for wal-status.
func (st *Store) Status() StoreStatus {
	out := StoreStatus{Status: st.log.Status()}
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
