package fleet

// The fleet journal seam. A Manager configured with a Journal writes every
// intent-store mutation ahead of applying it (a journal failure rejects the
// mutation, so durable state never lags accepted state), plus observability
// records for quarantine/recovery decisions the reconcilers make on their
// own; a journal failure there is dropped, because those are not intent and
// must not wedge the reconcile loop. Replay rebuilds the intent store only —
// recovery restores intent, reconciliation restores reality — so quarantine
// records are informational on replay: a restarted manager re-probes its
// backends and re-derives health rather than trusting a pre-crash verdict.

// JournalOp identifies a fleet journal entry.
type JournalOp string

// Fleet journal operations.
const (
	OpAddPod      JournalOp = "add-pod"
	OpRemovePod   JournalOp = "remove-pod"
	OpSetSlice    JournalOp = "set-slice"
	OpRemoveSlice JournalOp = "remove-slice"
	OpReplace     JournalOp = "replace"
	OpDrainPod    JournalOp = "drain-pod"
	OpUndrainPod  JournalOp = "undrain-pod"
	OpDrainOCS    JournalOp = "drain-ocs"
	OpUndrainOCS  JournalOp = "undrain-ocs"
	OpQuarantine  JournalOp = "quarantine"
	OpRecover     JournalOp = "recover"
)

// JournalOps lists every fleet journal operation. A durable log may store
// an op as its position here, so the list is append-only: a new op goes at
// the end and none is ever moved or removed.
var JournalOps = []JournalOp{OpAddPod, OpRemovePod, OpSetSlice, OpRemoveSlice,
	OpReplace, OpDrainPod, OpUndrainPod, OpDrainOCS, OpUndrainOCS,
	OpQuarantine, OpRecover}

// JournalEntry is one fleet journal record. Fields beyond Op and Pod are
// op-specific: Slice for set-slice, Name for remove-slice, Slices for
// replace, OCS for the OCS drains.
type JournalEntry struct {
	Op     JournalOp     `json:"op"`
	Pod    string        `json:"pod"`
	Slice  *SliceIntent  `json:"slice,omitempty"`
	Name   string        `json:"name,omitempty"`
	Slices []SliceIntent `json:"slices,omitempty"`
	OCS    int           `json:"ocs,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// Journal receives fleet journal entries. The Manager calls it with the
// entry's intent scope reserved (see Manager.intake) and no manager-wide
// lock held: calls for conflicting scopes arrive one at a time, in the
// order they are applied; calls for disjoint scopes arrive concurrently,
// which lets a group-committing implementation put several callers in one
// fsync. An implementation must be safe for concurrent use and may read the
// Manager (Status, Pods), but must not mutate the pod being journaled: that
// waits on its own reservation. Entries fold idempotently and may repeat: a
// recover when a Poke lands between the record and its event, a drain-pod
// or remove-slice when two callers race the no-op check.
type Journal interface {
	JournalFleet(e JournalEntry) error
}

// journal writes one entry through the configured journal. Never call it
// with m.mu held (lwlint's locknest enforces this).
func (m *Manager) journal(e JournalEntry) error {
	if m.opts.Journal == nil {
		return nil
	}
	return m.opts.Journal.JournalFleet(e)
}
