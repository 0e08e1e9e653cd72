package chaos

import (
	"fmt"
	"time"

	"lightwave/internal/fleet"
)

// The lab's reconcile tuning: millisecond backoffs, so a retry budget
// burns in real time a replay can wait out, and one generous bound on
// every such wait — reached only by a drill whose post-state never comes.
const (
	labBaseBackoff     = time.Millisecond
	labMaxBackoff      = 8 * time.Millisecond
	labQuarantineAfter = 3
	labSettleTimeout   = 30 * time.Second
)

// Lab is the live control plane every drill replays against: a
// fleet.Manager on the lab tuning over pods pod0..podN-1 whose backends
// fail on demand. The chaos evaluator, both lives of the crash-restart
// drill and the superpod replay differ in what sits behind the pods and
// what they do to them, not in how this is put together.
type Lab struct {
	Manager *fleet.Manager
	// Pods names the pods in index order; Backends holds their injectable
	// backends by name (the shape Targets.Backends takes).
	Pods     []string
	Backends map[string]*FaultyBackend
}

// NewLab builds a lab with one pod per inner backend, each wrapped in a
// FaultyBackend. seed feeds the reconciler's backoff jitter; a non-nil
// journal makes the manager's intake durable.
func NewLab(seed uint64, inner []fleet.Backend, journal fleet.Journal) (*Lab, error) {
	l := &Lab{
		Manager: fleet.NewManager(fleet.Options{
			BaseBackoff:     labBaseBackoff,
			MaxBackoff:      labMaxBackoff,
			QuarantineAfter: labQuarantineAfter,
			Seed:            seed,
			Journal:         journal,
		}),
		Backends: make(map[string]*FaultyBackend, len(inner)),
	}
	for i, b := range inner {
		name := fmt.Sprintf("pod%d", i)
		l.Pods = append(l.Pods, name)
		l.Backends[name] = NewFaultyBackend(b)
		if err := l.Manager.AddPod(name, l.Backends[name]); err != nil {
			l.Close()
			return nil, err
		}
	}
	return l, nil
}

// memoryPods returns n MemoryBackends: pods that only need to hold intent.
func memoryPods(n int) []fleet.Backend {
	inner := make([]fleet.Backend, n)
	for i := range inner {
		inner[i] = NewMemoryBackend()
	}
	return inner
}

// Close stops the manager's reconcile workers.
func (l *Lab) Close() { l.Manager.Close() }

// Settle waits until fleet status satisfies pred — the bridge between the
// reconciler's real-time workers and a replay's virtual clock. Each fault
// settles on a deterministic post-state, so only the wait is wall-clock.
func (l *Lab) Settle(what string, pred func(fleet.Status) bool) error {
	if err := l.Manager.WaitStatus(labSettleTimeout, what, pred); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}

// allConverged holds when every pod has realized its intent and nothing is
// queued — stricter than Status.Settled, which also accepts quarantine.
func allConverged(st fleet.Status) bool {
	for _, p := range st.Pods {
		if !p.Converged {
			return false
		}
	}
	return st.QueueDepth == 0
}

// Quarantined holds once the reconciler has burned its retry budget on
// the pod; waiting for it pins the pod's error-event count.
func Quarantined(pod string) func(fleet.Status) bool {
	return func(st fleet.Status) bool {
		p, _ := st.Pod(pod)
		return p.Quarantined
	}
}

// Recovered holds once the pod has realized its intent again (a converged
// pod is by definition not quarantined).
func Recovered(pod string) func(fleet.Status) bool {
	return func(st fleet.Status) bool {
		p, _ := st.Pod(pod)
		return p.Converged
	}
}
