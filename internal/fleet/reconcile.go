package fleet

import (
	"fmt"
	"sort"
	"time"

	"lightwave/internal/sim"
	"lightwave/internal/telemetry"
)

// reconcileResult reports what one reconcile pass did.
type reconcileResult struct {
	applied  []string // desired slices now realized
	removed  []string // slices destroyed
	deferred int      // new slices held back by an OCS drain
}

// worker is one pod's reconcile loop: wait for a kick, reconcile until
// converged, backing off with jitter between failed attempts and
// quarantining the pod when the retry budget is exhausted.
func (m *Manager) worker(p *pod, rngSeed uint64) {
	defer m.wg.Done()
	rng := sim.NewRand(rngSeed)
	backoff := m.opts.BaseBackoff
	for {
		select {
		case <-m.done:
			return
		case <-p.kick:
		}
		for {
			m.mu.Lock()
			if p.quarantined || !p.dirty {
				m.mu.Unlock()
				break
			}
			gen := p.gen
			desired := make(map[string]SliceIntent, len(p.desired))
			for name, in := range p.desired {
				desired[name] = in
			}
			drained := p.drained
			ocsDrained := len(p.drainedOCS) > 0
			m.mu.Unlock()

			start := time.Now()
			res, err := reconcile(p.backend, desired, drained, ocsDrained)
			p.latency.Observe(time.Since(start).Seconds())
			p.reconciles.Inc()

			if err == nil {
				if m.finishPass(p, gen, res, drained) {
					backoff = m.opts.BaseBackoff
					break
				}
				continue // intent changed mid-pass: re-reconcile now
			}

			if m.recordFailure(p, err) {
				break
			}
			m.backoffs.Inc()
			// ±50% jitter decorrelates pods retrying a shared-cause fault.
			d := time.Duration((0.5 + rng.Float64()) * float64(backoff))
			backoff = min(2*backoff, m.opts.MaxBackoff)
			select {
			case <-m.done:
				return
			case <-time.After(d):
			}
		}
	}
}

// finishPass publishes the outcome of a successful reconcile. It reports
// false when the intent changed while the pass ran, in which case the
// worker must reconcile again from a fresh snapshot.
func (m *Manager) finishPass(p *pod, gen uint64, res reconcileResult, drained bool) bool {
	detail := fmt.Sprintf("%d slices", len(res.applied))
	if drained {
		detail = "drained"
	}
	m.mu.Lock()
	p.failures = 0
	p.lastErr = ""
	recovering := p.recovering && p.gen == gen && res.deferred == 0
	m.mu.Unlock()
	if recovering {
		// The recovery edge is a pod-wide record, journaled ahead of the
		// event announcing it with new intents held off meanwhile.
		p.reserve(scopePod)
		defer p.release(scopePod)
		_ = m.journal(JournalEntry{Op: OpRecover, Pod: p.name, Detail: detail})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.gen != gen {
		return false
	}
	applied := make(map[string]bool, len(res.applied))
	for _, name := range res.applied {
		applied[name] = true
	}
	for name := range p.pendingReady {
		if applied[name] {
			delete(p.pendingReady, name)
			m.emitLocked(Event{Pod: p.name, Type: EventSliceReady, Slice: name})
		}
	}
	for name := range p.pendingGone {
		delete(p.pendingGone, name)
		m.emitLocked(Event{Pod: p.name, Type: EventSliceRemoved, Slice: name})
	}
	if res.deferred > 0 {
		// Not converged, but not a failure either: the pod stays dirty and
		// re-reconciles when the OCS drain lifts.
		m.emitLocked(Event{Pod: p.name, Type: EventDeferred,
			Detail: fmt.Sprintf("%d slices await ocs undrain", res.deferred)})
		return true
	}
	if p.dirty {
		m.convergence.Observe(time.Since(p.dirtySince).Seconds())
		p.dirty = false
		m.queueDepth.Set(float64(m.dirtyLocked()))
	}
	if recovering {
		// The pod was quarantined, the quarantine was released, and it has
		// now reconciled back to its intent: the recovery edge, distinct
		// from an ordinary convergence so operators (and internal/chaos's
		// MTTR accounting) can see faults close out.
		p.recovering = false
		m.emitLocked(Event{Pod: p.name, Type: EventRecovered, Detail: detail})
	}
	m.emitLocked(Event{Pod: p.name, Type: EventConverged, Detail: detail})
	return true
}

// recordFailure counts one failed attempt and quarantines the pod when the
// consecutive-failure budget is spent. Reports whether it quarantined. The
// verdict is a pod-wide record, so the pod is reserved from the count on (no
// UndrainPod can reset the budget in between) and publication goes journal →
// alert → state/event: an observer of the quarantine finds both.
func (m *Manager) recordFailure(p *pod, err error) bool {
	p.reserve(scopePod)
	defer p.release(scopePod)
	m.mu.Lock()
	p.failures++
	p.lastErr = err.Error()
	m.retries.Inc()
	p.retries.Inc()
	m.emitLocked(Event{Pod: p.name, Type: EventReconcileError, Detail: err.Error()})
	spent := p.failures >= m.opts.QuarantineAfter
	m.mu.Unlock()
	if !spent {
		return false
	}
	_ = m.journal(JournalEntry{Op: OpQuarantine, Pod: p.name, Detail: err.Error()})
	if m.opts.Alerts != nil {
		m.opts.Alerts.Post(telemetry.Alert{
			Source:   "fleet/" + p.name,
			Severity: telemetry.Critical,
			Message:  fmt.Sprintf("pod quarantined after %d consecutive reconcile failures: %v", m.opts.QuarantineAfter, err),
		})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p.quarantined = true
	m.quarantines.Inc()
	m.quarantinedPods.Set(float64(m.quarantinedLocked()))
	m.emitLocked(Event{Pod: p.name, Type: EventQuarantined, Detail: err.Error()})
	return true
}

// reconcile drives a backend toward the desired slice set: destroy what is
// no longer desired, then ensure what is. A pod drain empties the desired
// set; an OCS drain defers *new* slices while leaving existing ones alone.
func reconcile(b Backend, desired map[string]SliceIntent, drained, ocsDrained bool) (reconcileResult, error) {
	var res reconcileResult
	if drained {
		desired = nil
	}
	actual := make(map[string]bool)
	for _, name := range b.Slices() {
		actual[name] = true
	}

	var extra []string
	for name := range actual {
		if _, want := desired[name]; !want {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		if err := b.Destroy(name); err != nil {
			return res, fmt.Errorf("destroy %q: %w", name, err)
		}
		res.removed = append(res.removed, name)
	}

	names := make([]string, 0, len(desired))
	for name := range desired {
		names = append(names, name)
	}
	sort.Strings(names)
	// Ensure with a retry sweep: slice migrations can hand cubes from one
	// slice to another (defrag compaction, failure swaps), so an ensure may
	// only become satisfiable after a later ensure in the same pass frees
	// its cubes. Sweep the blocked set until it drains or stops shrinking;
	// only a genuinely stuck remainder fails the pass.
	pending := names
	for len(pending) > 0 {
		var blocked []string
		var firstErr error
		for _, name := range pending {
			in := desired[name]
			if ocsDrained && !actual[name] {
				res.deferred++
				continue
			}
			if _, err := b.Ensure(in.Name, in.Shape, in.Cubes); err != nil {
				blocked = append(blocked, name)
				if firstErr == nil {
					firstErr = fmt.Errorf("ensure %q: %w", name, err)
				}
				continue
			}
			res.applied = append(res.applied, name)
		}
		if len(blocked) == len(pending) {
			return res, firstErr
		}
		pending = blocked
	}
	return res, nil
}
