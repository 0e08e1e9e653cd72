package fleet

import "time"

// EventType classifies fleet events.
type EventType string

// Event types published on the stream.
const (
	// EventIntent: an intent was accepted into the store.
	EventIntent EventType = "intent"
	// EventSliceReady: a desired slice converged on the hardware.
	EventSliceReady EventType = "slice-ready"
	// EventSliceRemoved: a removed slice was destroyed.
	EventSliceRemoved EventType = "slice-removed"
	// EventConverged: a pod's actual state matches its intent.
	EventConverged EventType = "converged"
	// EventDeferred: new slices are held back by an OCS drain.
	EventDeferred EventType = "deferred"
	// EventReconcileError: one reconcile attempt failed (will retry).
	EventReconcileError EventType = "reconcile-error"
	// EventQuarantined: a pod exhausted its retry budget.
	EventQuarantined EventType = "quarantined"
	// EventRecovered: a previously quarantined pod converged again after
	// its backend recovered and UndrainPod released the quarantine.
	EventRecovered EventType = "recovered"
	// EventDrained / EventUndrained: pod- or OCS-level maintenance drains.
	EventDrained   EventType = "drained"
	EventUndrained EventType = "undrained"
)

// Event is one fleet state transition.
type Event struct {
	Seq    uint64
	Time   time.Time
	Pod    string
	Type   EventType
	Slice  string // set for slice-scoped events
	Detail string
}

// Subscription is a buffered event feed. Slow consumers do not block the
// control plane: events that do not fit the buffer are dropped and counted
// on fleet.watch_dropped_total.
type Subscription struct {
	m  *Manager
	id int
	ch chan Event
}

// Subscribe opens an event feed with the given buffer (default 64).
// Events emitted before Subscribe returns are not replayed.
func (m *Manager) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 64
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Subscription{m: m, id: m.nextSub, ch: make(chan Event, buffer)}
	m.nextSub++
	if m.closed {
		close(s.ch)
		return s
	}
	m.subs[s.id] = s
	return s
}

// Events returns the feed; it is closed by Close or Manager.Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Close ends the subscription.
func (s *Subscription) Close() {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if _, ok := s.m.subs[s.id]; !ok {
		return
	}
	delete(s.m.subs, s.id)
	close(s.ch)
}

// emitLocked stamps and fans an event out to every subscriber.
func (m *Manager) emitLocked(ev Event) {
	m.seq++
	ev.Seq = m.seq
	ev.Time = time.Now()
	for _, s := range m.subs {
		select {
		case s.ch <- ev:
		default:
			m.watchDropped.Inc()
		}
	}
}
