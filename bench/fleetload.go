package main

import (
	"fmt"
	"sync"
	"time"

	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
	"lightwave/internal/telemetry"
)

// ---- intent_converge ----

const (
	convergeBlocks = 64  // 768 cycles per caller before the stream repeats
	convergeWarmup = 100 // operations
)

// converge is the intent_converge workload: callers sharing one pipelined
// client each loop apply-intent set → wait slice-ready → apply-intent
// remove → wait slice-removed, matching events from one watch connection.
// The realisation path — reconcile queue → FabricBackend → core → ocs —
// does most of the work; the WAL append+fsync under each intent the rest.
type converge struct {
	rig     *fleetRig
	watch   *ctlrpc.WatchStream
	watched chan struct{} // closed when the event reader exits
	streams [][]convergeOp
	next    []int // per caller: position in its stream

	mu      sync.Mutex
	waiters map[string]chan time.Time

	tr     *tracer
	owners []*owner
	lanes  []*lane
}

func eventKey(pod, slice, typ string) string { return pod + "/" + slice + "/" + typ }

func setupConverge(e *env, tr *tracer) (instance, error) {
	w := &converge{tr: tr, waiters: map[string]chan time.Time{}, watched: make(chan struct{})}
	callers := e.conns
	var sm *seams
	if tr != nil {
		sm = &seams{tr: tr, owners: map[string]*owner{}, waits: true}
	}
	for c := 0; c < callers; c++ {
		st := convergeStream(e.seed, c, convergeBlocks)
		w.streams = append(w.streams, st)
		if tr != nil {
			o := &owner{}
			w.owners = append(w.owners, o)
			w.lanes = append(w.lanes, tr.newLane())
			for _, op := range st {
				sm.owners[sliceKey(op.Pod, op.Slice)] = o
			}
		}
	}
	w.next = make([]int, callers)
	rig, err := newFleetRig(e, true, 2, sm)
	if err != nil {
		return nil, err
	}
	w.rig = rig
	if w.watch, err = rig.clients[1].Watch(); err != nil {
		rig.close()
		return nil, err
	}
	go w.readEvents()
	warm(convergeWarmup, callers, w.caller)
	return w, nil
}

// readEvents hands every watch event's arrival time to the caller waiting
// for it.
func (w *converge) readEvents() {
	defer close(w.watched)
	for {
		ev, err := w.watch.Next()
		if err != nil {
			return
		}
		at := time.Now()
		key := eventKey(ev.Pod, ev.Slice, ev.Type)
		w.mu.Lock()
		ch := w.waiters[key]
		delete(w.waiters, key)
		w.mu.Unlock()
		if ch != nil {
			ch <- at
		}
	}
}

// await sends one intent and waits for the watch event that answers it,
// returning when the RPC was acknowledged and when the event arrived.
func (w *converge) await(ch chan time.Time, timeout *time.Timer, params ctlrpc.ApplyIntentParams, key string) (acked, seen time.Time, err error) {
	w.mu.Lock()
	w.waiters[key] = ch
	w.mu.Unlock()
	if _, err = w.rig.clients[0].ApplyIntent(params); err == nil {
		acked = time.Now()
		timeout.Reset(waitLimit)
		select {
		case seen = <-ch:
			if !timeout.Stop() {
				<-timeout.C
			}
			return acked, seen, nil
		case <-timeout.C:
			err = fmt.Errorf("no event %s within %s", key, waitLimit)
		}
	}
	w.mu.Lock()
	delete(w.waiters, key)
	w.mu.Unlock()
	return acked, seen, err
}

// caller runs one caller's cycles until the phase stops. One cycle — set
// the slice, see it ready, remove it, see it gone — is one operation.
func (w *converge) caller(p *phase, c int) {
	ch := make(chan time.Time, 1)
	timeout := time.NewTimer(waitLimit)
	timeout.Stop()
	for !p.stop.Load() {
		op := w.streams[c][w.next[c]%len(w.streams[c])]
		w.next[c]++
		var root uint64
		if w.tr != nil {
			root = w.tr.newIDs(5)
			w.owners[c].set(root, root+1)
		}
		start := time.Now()
		acked, ready, err := w.await(ch, timeout, op.Set, eventKey(op.Pod, op.Slice, string(fleet.EventSliceReady)))
		if err == nil {
			if w.tr != nil {
				w.owners[c].set(root, root+3)
			}
			var acked2, gone time.Time
			mid := time.Now()
			acked2, gone, err = w.await(ch, timeout, op.Remove, eventKey(op.Pod, op.Slice, string(fleet.EventSliceRemoved)))
			if err == nil {
				if w.tr != nil {
					ln := w.lanes[c]
					ln.add(root, 0, root, "client.op", start, gone)
					ln.add(root+1, root+2, root, "client.ack", start, acked)
					ln.add(root+2, root, root, "client.ready", start, ready)
					ln.add(root+3, root+4, root, "client.ack", mid, acked2)
					ln.add(root+4, root, root, "client.removed", mid, gone)
				}
				p.lat[c] = append(p.lat[c], gone.Sub(start).Seconds())
				p.ack[c] = append(p.ack[c], acked.Sub(start).Seconds(), acked2.Sub(mid).Seconds())
			}
		}
		if w.tr != nil {
			w.owners[c].set(0, 0)
		}
		if err != nil {
			p.failed.Add(1)
		}
		p.counts[c].n.Add(1)
	}
}

func (w *converge) measure(seconds float64) phaseResult {
	res := runClosed(seconds, len(w.streams), w.caller)
	res.extra = map[string]float64{"ctlrpc.id_mismatches": unknownResponses(w.rig.clients)}
	return res
}

func (w *converge) verify() (int, []error) {
	var errs []error
	if err := w.rig.waitConverged(); err != nil {
		errs = append(errs, err)
	}
	st, err := w.rig.clients[0].FleetStatus()
	if err != nil {
		errs = append(errs, err)
	}
	for _, p := range st.Pods {
		if len(p.ActualSlices) != 0 || len(p.DesiredSlices) != 0 {
			errs = append(errs, fmt.Errorf("%s: slices left behind: desired %v actual %v", p.Name, p.DesiredSlices, p.ActualSlices))
		}
	}
	if n := counterOf(w.rig.reg, "fleet.watch_dropped_total"); n != 0 {
		errs = append(errs, fmt.Errorf("%v watch events dropped", n))
	}
	errs = append(errs, w.rig.digestSurvivesReopen()...)
	errs = append(errs, w.rig.checkFabrics()...)
	return 4 + numPods, errs
}

func (w *converge) registry() *telemetry.Registry { return w.rig.reg }

func (w *converge) close() error {
	err := w.rig.close()
	<-w.watched
	return err
}

// ---- mutate_durable / mutate_volatile ----

const (
	callersPerConn = 8
	mutateWarmup   = 2000 // operations
)

// mutate is the mutate_* workload: conns × 8 callers each cycle drain-ocs
// → re-assert → undrain-ocs → re-assert on their own OCS and slice of a
// pre-converged fleet, without waiting for convergence.
type mutate struct {
	rig     *fleetRig
	callers []mutateCaller
	step    []int // per caller: position in its four-step cycle

	tr     *tracer
	owners []*owner
	lanes  []*lane
}

func setupMutate(durable bool) func(e *env, tr *tracer) (instance, error) {
	return func(e *env, tr *tracer) (instance, error) {
		w := &mutate{tr: tr}
		slices := mutateFleet(e.seed)
		w.callers = mutateCallers(e.seed, slices, e.conns*callersPerConn)
		w.step = make([]int, len(w.callers))
		var sm *seams
		if tr != nil {
			sm = &seams{tr: tr, owners: map[string]*owner{}}
			for _, mc := range w.callers {
				o := &owner{}
				w.owners = append(w.owners, o)
				w.lanes = append(w.lanes, tr.newLane())
				sm.owners[sliceKey(mc.Slice.Pod, mc.Slice.Name)] = o
				sm.owners[ocsKey(mc.Slice.Pod, mc.OCS)] = o
			}
		}
		rig, err := newFleetRig(e, durable, e.conns, sm)
		if err != nil {
			return nil, err
		}
		w.rig = rig
		for p := 0; p < numPods; p++ {
			params := ctlrpc.ApplyIntentParams{Pod: podName(p)}
			for _, sl := range slices {
				if sl.Pod == params.Pod {
					params.Slices = append(params.Slices, ctlrpc.SliceIntentSpec{Name: sl.Name, Shape: sl.Shape})
				}
			}
			if _, err := rig.clients[0].ApplyIntent(params); err != nil {
				rig.close()
				return nil, err
			}
		}
		if err := rig.waitConverged(); err != nil {
			rig.close()
			return nil, err
		}
		warm(mutateWarmup, len(w.callers), w.caller)
		return w, nil
	}
}

// caller cycles its four mutations until the phase stops, then lifts its
// drain if the cycle stopped half way so the fleet can converge.
func (w *mutate) caller(p *phase, c int) {
	mc := w.callers[c]
	cl := w.rig.clients[c/callersPerConn]
	pod, ocsID := mc.Slice.Pod, mc.OCS
	issue := func(step int) error {
		switch step % 4 {
		case 0:
			return cl.Drain(pod, &ocsID)
		case 2:
			return cl.Undrain(pod, &ocsID)
		default:
			_, err := cl.ApplyIntent(mc.Reassert)
			return err
		}
	}
	for i := 0; !p.stop.Load(); i++ {
		if i%sampleEvery != 0 {
			if err := issue(w.step[c]); err != nil {
				p.failed.Add(1)
			}
		} else {
			var root uint64
			if w.tr != nil {
				root = w.tr.newIDs(1)
				w.owners[c].set(root, root)
			}
			sent := time.Now()
			err := issue(w.step[c])
			acked := time.Now()
			if w.tr != nil {
				w.owners[c].set(0, 0)
				w.lanes[c].add(root, 0, root, "client.ack", sent, acked)
			}
			if err != nil {
				p.failed.Add(1)
			} else {
				p.lat[c] = append(p.lat[c], acked.Sub(sent).Seconds())
			}
		}
		w.step[c]++
		p.counts[c].n.Add(1)
	}
	if s := w.step[c] % 4; s == 1 || s == 2 {
		if err := cl.Undrain(pod, &ocsID); err != nil {
			p.failed.Add(1)
		}
		w.step[c] = 0
	}
}

func (w *mutate) measure(seconds float64) phaseResult {
	res := runClosed(seconds, len(w.callers), w.caller)
	res.ack = res.lat
	res.extra = map[string]float64{"ctlrpc.id_mismatches": unknownResponses(w.rig.clients)}
	return res
}

func (w *mutate) verify() (int, []error) {
	var errs []error
	if err := w.rig.waitConverged(); err != nil {
		errs = append(errs, err)
	}
	st, err := w.rig.clients[0].FleetStatus()
	if err != nil {
		errs = append(errs, err)
	}
	for _, p := range st.Pods {
		if len(p.ActualSlices) != 8 || len(p.DesiredSlices) != 8 {
			errs = append(errs, fmt.Errorf("%s: want 8 slices, desired %v actual %v", p.Name, p.DesiredSlices, p.ActualSlices))
		}
	}
	errs = append(errs, w.rig.digestSurvivesReopen()...)
	errs = append(errs, w.rig.checkFabrics()...)
	return 3 + numPods, errs
}

func (w *mutate) registry() *telemetry.Registry { return w.rig.reg }

func (w *mutate) close() error { return w.rig.close() }
