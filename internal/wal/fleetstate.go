package wal

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"lightwave/internal/fleet"
)

// FleetState is the materialized fleet intent store: the fold of every
// fleet journal entry. The Store keeps one up to date as entries are
// journaled, so a snapshot captures the intent store without replaying
// the log, and a digest of the canonical encoding lets the chaos
// crash-restart evaluator assert byte-identical recovery.
type FleetState struct {
	// Pods maps pod name to its durable intent state.
	Pods map[string]*PodIntent `json:"pods"`
}

// PodIntent is one pod's durable state. Quarantined mirrors the
// reconciler's last journaled verdict; it is restored for observability
// but recovery does not force it back into the manager — a restarted
// manager re-derives health by reconciling. DrainedOCS is ascending with
// no repeats; Apply keeps it so by inserting in place.
type PodIntent struct {
	Slices      map[string]fleet.SliceIntent `json:"slices"`
	Drained     bool                         `json:"drained,omitempty"`
	DrainedOCS  []int                        `json:"drainedOCS,omitempty"`
	Quarantined bool                         `json:"quarantined,omitempty"`
}

// NewFleetState returns an empty intent store.
func NewFleetState() *FleetState {
	return &FleetState{Pods: make(map[string]*PodIntent)}
}

func (fs *FleetState) pod(name string) *PodIntent {
	p := fs.Pods[name]
	if p == nil {
		p = &PodIntent{Slices: make(map[string]fleet.SliceIntent)}
		fs.Pods[name] = p
	}
	return p
}

// Apply folds one journal entry into the state. Unknown ops are ignored
// so newer logs replay on older code as far as possible.
func (fs *FleetState) Apply(e fleet.JournalEntry) {
	switch e.Op {
	case fleet.OpAddPod:
		fs.pod(e.Pod)
	case fleet.OpRemovePod:
		delete(fs.Pods, e.Pod)
	case fleet.OpSetSlice:
		if e.Slice != nil {
			fs.pod(e.Pod).Slices[e.Slice.Name] = *e.Slice
		}
	case fleet.OpRemoveSlice:
		delete(fs.pod(e.Pod).Slices, e.Name)
	case fleet.OpReplace:
		p := fs.pod(e.Pod)
		p.Slices = make(map[string]fleet.SliceIntent, len(e.Slices))
		for _, in := range e.Slices {
			p.Slices[in.Name] = in
		}
	case fleet.OpDrainPod:
		fs.pod(e.Pod).Drained = true
	case fleet.OpUndrainPod:
		p := fs.pod(e.Pod)
		p.Drained = false
		p.Quarantined = false
	case fleet.OpDrainOCS:
		p := fs.pod(e.Pod)
		if i, found := slices.BinarySearch(p.DrainedOCS, e.OCS); !found {
			p.DrainedOCS = slices.Insert(p.DrainedOCS, i, e.OCS)
		}
	case fleet.OpUndrainOCS:
		p := fs.pod(e.Pod)
		out := p.DrainedOCS[:0]
		for _, o := range p.DrainedOCS {
			if o != e.OCS {
				out = append(out, o)
			}
		}
		p.DrainedOCS = out
		if len(p.DrainedOCS) == 0 {
			p.DrainedOCS = nil
		}
	case fleet.OpQuarantine:
		fs.pod(e.Pod).Quarantined = true
	case fleet.OpRecover:
		fs.pod(e.Pod).Quarantined = false
	}
}

// canonical is the deterministic wire form of a FleetState: pods and
// slices as sorted arrays so two equal states encode to equal bytes.
type canonicalPod struct {
	Name        string              `json:"name"`
	Slices      []fleet.SliceIntent `json:"slices"`
	Drained     bool                `json:"drained,omitempty"`
	DrainedOCS  []int               `json:"drainedOCS,omitempty"`
	Quarantined bool                `json:"quarantined,omitempty"`
}

// Encode returns the canonical JSON encoding: map iteration order never
// leaks into the bytes, so equal states yield equal encodings.
func (fs *FleetState) Encode() ([]byte, error) {
	pods := make([]canonicalPod, 0, len(fs.Pods))
	for name, p := range fs.Pods {
		cp := canonicalPod{
			Name:        name,
			Slices:      make([]fleet.SliceIntent, 0, len(p.Slices)),
			Drained:     p.Drained,
			DrainedOCS:  p.DrainedOCS,
			Quarantined: p.Quarantined,
		}
		for _, in := range p.Slices {
			cp.Slices = append(cp.Slices, in)
		}
		sort.Slice(cp.Slices, func(i, j int) bool { return cp.Slices[i].Name < cp.Slices[j].Name })
		pods = append(pods, cp)
	}
	sort.Slice(pods, func(i, j int) bool { return pods[i].Name < pods[j].Name })
	return json.Marshal(pods)
}

// DecodeFleetState parses an Encode result.
func DecodeFleetState(b []byte) (*FleetState, error) {
	var pods []canonicalPod
	if err := json.Unmarshal(b, &pods); err != nil {
		return nil, fmt.Errorf("wal: fleet state: %w", err)
	}
	fs := NewFleetState()
	for _, cp := range pods {
		p := fs.pod(cp.Name)
		p.Drained = cp.Drained
		p.DrainedOCS = cp.DrainedOCS
		p.Quarantined = cp.Quarantined
		for _, in := range cp.Slices {
			p.Slices[in.Name] = in
		}
	}
	return fs, nil
}

// Digest hashes the canonical encoding — the identity the crash-restart
// evaluator compares across a crash.
func (fs *FleetState) Digest() ([32]byte, error) {
	b, err := fs.Encode()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// ApplyTo pushes the recovered intent store into a live manager. Pods
// must already be registered (the daemon adds them from its own config;
// a pod present on disk but absent from the config is skipped — the
// operator shrank the fleet). Quarantine verdicts are not pushed: the
// manager re-derives pod health by reconciling.
func (fs *FleetState) ApplyTo(m *fleet.Manager) error {
	known := make(map[string]bool)
	for _, name := range m.Pods() {
		known[name] = true
	}
	names := make([]string, 0, len(fs.Pods))
	for name := range fs.Pods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !known[name] {
			continue
		}
		p := fs.Pods[name]
		ins := make([]fleet.SliceIntent, 0, len(p.Slices))
		for _, in := range p.Slices {
			ins = append(ins, in)
		}
		sort.Slice(ins, func(i, j int) bool { return ins[i].Name < ins[j].Name })
		if err := m.ReplaceIntent(name, ins); err != nil {
			return fmt.Errorf("wal: restore %s intents: %w", name, err)
		}
		for _, o := range p.DrainedOCS {
			if err := m.DrainOCS(name, o); err != nil {
				return fmt.Errorf("wal: restore %s ocs drain: %w", name, err)
			}
		}
		if p.Drained {
			if err := m.DrainPod(name); err != nil {
				return fmt.Errorf("wal: restore %s drain: %w", name, err)
			}
		}
	}
	return nil
}
