package sched

import "encoding/json"

// The scheduler journal seam. Unlike the fleet intent store — whose
// journal records *state* — the scheduler journals its *inputs* (submit,
// advance, fail, repair, pod-down): the scheduler is deterministic given
// its input sequence, so command-sourcing replays to the exact pre-crash
// placement state, ids included. Snapshots break the replay chain with a
// full state export (see state.go); WALLSN in the export is the LSN of the
// last input that state holds, whether it arrived live or by replay, so
// replay resumes exactly after it.
//
// Replay equivalence assumes ClusterOps errors repeat (normally: none) —
// a placement the cluster rejected live is rolled back in the mirror, so
// a replay where the same ensure succeeds would diverge. Recovery
// tolerates this: the fleet reconcilers converge the fabric to whatever
// the replayed scheduler believes, which is the recovery-restores-intent
// contract.

// JournalOp identifies a scheduler journal entry.
type JournalOp string

// Scheduler journal operations.
const (
	OpSubmit     JournalOp = "submit"
	OpAdvance    JournalOp = "advance"
	OpFailCube   JournalOp = "fail-cube"
	OpRepairCube JournalOp = "repair-cube"
	OpPodDown    JournalOp = "pod-down"
	OpMeasure    JournalOp = "start-measurement"
)

// JournalOps lists every scheduler journal operation. A durable log may
// store an op as its position here, so the list is append-only: a new op
// goes at the end and none is ever moved or removed.
var JournalOps = []JournalOp{OpSubmit, OpAdvance, OpFailCube, OpRepairCube,
	OpPodDown, OpMeasure}

// JournalEntry is one scheduler input. Fields beyond Op are op-specific.
type JournalEntry struct {
	Op   JournalOp `json:"op"`
	Spec *JobSpec  `json:"spec,omitempty"`
	T    float64   `json:"t,omitempty"`
	Pod  string    `json:"pod,omitempty"`
	Cube int       `json:"cube,omitempty"`
	Down bool      `json:"down,omitempty"`
}

// Journal appends one encoded journal entry and returns the log sequence
// number it was assigned, so state exports can record how much of the log
// they cover. Implementations must be safe for concurrent use and are
// called with the scheduler's lock held, so they must not call back into
// the Scheduler.
type Journal interface {
	Append(payload []byte) (uint64, error)
}

// SetJournal attaches a journal. Attach after recovery replay and before
// live traffic; a nil journal disables journaling.
func (s *Scheduler) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// journalLocked writes one input record ahead of applying it; a journal
// failure rejects the input so durable state never lags accepted state.
func (s *Scheduler) journalLocked(e JournalEntry) error {
	if s.journal == nil {
		return nil
	}
	b, err := encodeEntry(e)
	if err != nil {
		return err
	}
	lsn, err := s.journal.Append(b)
	if err != nil {
		return err
	}
	if lsn > s.walLSN {
		s.walLSN = lsn
	}
	return nil
}

// Export makes the scheduler a wal section: it returns ExportState as
// JSON and the LSN it covers.
func (s *Scheduler) Export() ([]byte, uint64, error) {
	st := s.ExportState()
	b, err := json.Marshal(st)
	return b, st.WALLSN, err
}

// Load imports a snapshot's state export into the fresh scheduler; the
// export carries the LSN it covers.
func (s *Scheduler) Load(state []byte, _ uint64) error {
	var st State
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	return s.ImportState(st)
}

// Replay re-executes the journal record appended at lsn. It is the
// recovery path's dispatcher; the entry is re-executed through the
// ordinary mutators, so placement and id assignment repeat exactly. Like
// live journaling, it advances the LSN ExportState reports, whether or
// not the input is accepted again. A record that does not decode wraps
// walrec.ErrMalformed.
func (s *Scheduler) Replay(lsn uint64, payload []byte) error {
	e, err := decodeEntry(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.walLSN = max(s.walLSN, lsn)
	s.mu.Unlock()
	switch e.Op {
	case OpSubmit:
		if e.Spec == nil {
			return nil
		}
		_, _, err := s.Submit(*e.Spec)
		return err
	case OpAdvance:
		return s.AdvanceTo(e.T)
	case OpFailCube:
		return s.FailCube(e.Pod, e.Cube)
	case OpRepairCube:
		return s.RepairCube(e.Pod, e.Cube)
	case OpPodDown:
		return s.SetPodDown(e.Pod, e.Down)
	case OpMeasure:
		s.StartMeasurement()
		return nil
	}
	return nil
}
