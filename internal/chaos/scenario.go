package chaos

import (
	"fmt"
	"sort"
)

// Kind classifies a fault event.
type Kind string

// Fault kinds. OCS outage/restore target a switch of the DCN fabric;
// pod loss/restore target a compute pod's backend; the drain kinds
// exercise the maintenance workflow; circuit flap and BER degrade are
// trunk-scoped transients.
const (
	// KindOCSOutage fails a DCN fabric switch outright (both PSUs), as in
	// §3.4: every circuit it carried drops and the control plane must
	// heal around it.
	KindOCSOutage Kind = "ocs-outage"
	// KindOCSRestore returns a failed switch to service.
	KindOCSRestore Kind = "ocs-restore"
	// KindCircuitFlap administratively removes one trunk for
	// DurationSeconds (fiber bump, brief loss of light).
	KindCircuitFlap Kind = "circuit-flap"
	// KindBERDegrade feeds a degraded BER sample for one trunk to the
	// telemetry detector; at or above fec.KP4Threshold the trunk is drained
	// for DurationSeconds.
	KindBERDegrade Kind = "ber-degrade"
	// KindPodLoss makes a compute pod's backend reject all mutating
	// calls — the reconciler retries, then quarantines.
	KindPodLoss Kind = "pod-loss"
	// KindPodRestore heals the backend and releases the quarantine via
	// UndrainPod.
	KindPodRestore Kind = "pod-restore"
	// KindStuckDrain starts an OCS maintenance drain that never lifts on
	// its own (a wedged workflow needing operator intervention).
	KindStuckDrain Kind = "stuck-drain"
	// KindSlowDrain starts an OCS maintenance drain that lifts after
	// DurationSeconds.
	KindSlowDrain Kind = "slow-drain"
)

// validKinds is the closed set accepted by Scenario.Validate.
var validKinds = map[Kind]bool{
	KindOCSOutage: true, KindOCSRestore: true,
	KindCircuitFlap: true, KindBERDegrade: true,
	KindPodLoss: true, KindPodRestore: true,
	KindStuckDrain: true, KindSlowDrain: true,
}

// Event is one scheduled fault on the virtual timeline.
type Event struct {
	// At is the onset time in virtual seconds from scenario start.
	At   float64
	Kind Kind
	// Pod names the compute pod for pod- and drain-scoped kinds.
	Pod string
	// OCS addresses a switch (DCN fabric index for outage/restore, the
	// drained OCS id for the drain kinds).
	OCS int
	// Trunk is the block pair for circuit-flap and ber-degrade.
	Trunk [2]int
	// BER is the degraded bit-error rate for ber-degrade.
	BER float64
	// DurationSeconds bounds circuit-flap, ber-degrade and slow-drain;
	// the fault lifts at At+DurationSeconds.
	DurationSeconds float64
}

// needsDuration reports whether the kind is a bounded transient.
func (e Event) needsDuration() bool {
	return e.Kind == KindCircuitFlap || e.Kind == KindBERDegrade || e.Kind == KindSlowDrain
}

// String is a compact human/report form of the event.
func (e Event) String() string {
	switch e.Kind {
	case KindOCSOutage, KindOCSRestore:
		return fmt.Sprintf("%s ocs%d @%gs", e.Kind, e.OCS, e.At)
	case KindCircuitFlap:
		return fmt.Sprintf("%s trunk %d-%d @%gs for %gs", e.Kind, e.Trunk[0], e.Trunk[1], e.At, e.DurationSeconds)
	case KindBERDegrade:
		return fmt.Sprintf("%s trunk %d-%d ber %.2g @%gs for %gs", e.Kind, e.Trunk[0], e.Trunk[1], e.BER, e.At, e.DurationSeconds)
	case KindPodLoss, KindPodRestore:
		return fmt.Sprintf("%s %s @%gs", e.Kind, e.Pod, e.At)
	case KindStuckDrain:
		return fmt.Sprintf("%s %s ocs%d @%gs", e.Kind, e.Pod, e.OCS, e.At)
	case KindSlowDrain:
		return fmt.Sprintf("%s %s ocs%d @%gs for %gs", e.Kind, e.Pod, e.OCS, e.At, e.DurationSeconds)
	default:
		return fmt.Sprintf("%s @%gs", e.Kind, e.At)
	}
}

// Scenario is a named fault schedule over a virtual-time horizon.
type Scenario struct {
	Name string
	// HorizonSeconds is the virtual length of the replay; events must
	// fall inside it.
	HorizonSeconds float64
	Events         []Event
}

// Validate checks the schedule.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: scenario needs a name", ErrScenario)
	}
	if s.HorizonSeconds <= 0 {
		return fmt.Errorf("%w: horizon %g s", ErrScenario, s.HorizonSeconds)
	}
	for i, e := range s.Events {
		if !validKinds[e.Kind] {
			return fmt.Errorf("%w: event %d has unknown kind %q", ErrScenario, i, e.Kind)
		}
		if e.At < 0 || e.At >= s.HorizonSeconds {
			return fmt.Errorf("%w: event %d at %g s outside [0,%g)", ErrScenario, i, e.At, s.HorizonSeconds)
		}
		if e.needsDuration() && e.DurationSeconds <= 0 {
			return fmt.Errorf("%w: event %d (%s) needs a positive duration", ErrScenario, i, e.Kind)
		}
		switch e.Kind {
		case KindPodLoss, KindPodRestore, KindStuckDrain, KindSlowDrain:
			if e.Pod == "" {
				return fmt.Errorf("%w: event %d (%s) needs a pod", ErrScenario, i, e.Kind)
			}
		case KindCircuitFlap, KindBERDegrade:
			if e.Trunk[0] == e.Trunk[1] || e.Trunk[0] < 0 || e.Trunk[1] < 0 {
				return fmt.Errorf("%w: event %d has bad trunk %v", ErrScenario, i, e.Trunk)
			}
		}
		if e.Kind == KindBERDegrade && !(e.BER > 0 && e.BER < 1) {
			return fmt.Errorf("%w: event %d needs 0 < BER < 1, got %g", ErrScenario, i, e.BER)
		}
	}
	return nil
}

// action is one primitive timeline step: an event's onset, or the lift
// of a bounded transient.
type action struct {
	at   float64
	ev   Event
	lift bool
}

// actions expands the scenario into its primitive timeline, stably
// sorted by time (schedule order breaks ties), with bounded transients
// contributing an onset and a lift. Lifts past the horizon are clamped
// out (the fault outlives the replay).
func (s Scenario) actions() []action {
	acts := make([]action, 0, 2*len(s.Events))
	for _, e := range s.Events {
		acts = append(acts, action{at: e.At, ev: e})
		if e.needsDuration() {
			if end := e.At + e.DurationSeconds; end < s.HorizonSeconds {
				acts = append(acts, action{at: end, ev: e, lift: true})
			}
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	return acts
}

// SingleOCSOutage is the paper's headline availability drill: switch ocs
// fails at `at` and is field-repaired repairAfter seconds later. The
// expectation (§3.4) is a bounded capacity dip — 1/Nth of the fabric —
// that the control plane heals around within one reconcile epoch.
func SingleOCSOutage(ocs int, at, repairAfter, horizon float64) Scenario {
	return Scenario{
		Name:           fmt.Sprintf("single-ocs-outage-%d", ocs),
		HorizonSeconds: horizon,
		Events: []Event{
			{At: at, Kind: KindOCSOutage, OCS: ocs},
			{At: at + repairAfter, Kind: KindOCSRestore, OCS: ocs},
		},
	}
}
