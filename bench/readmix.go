package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lightwave/internal/ctlrpc"
	"lightwave/internal/telemetry"
)

const (
	readBlocks = 20   // 2000 reads per caller before the stream repeats
	readWarmup = 5000 // operations
	// The open-loop mutator: 20 ops/s is a busy operator or one TE loop,
	// enough to invalidate the generation-cached status encoding 20 times
	// a second and take the write lock for ~1.5 ms each time, without
	// turning a read benchmark into a write benchmark.
	mutatorPeriod = 50 * time.Millisecond
	checkEvery    = 1024 // every n-th read is decoded and checked
)

var scratchCubes = []int{60, 61, 62, 63}

// readMix is the status_read_mix workload: conns × 8 closed-loop readers
// (80% status, 19% slice, 1% metrics) beside one open-loop mutator that
// alternately ensures and destroys a scratch slice.
type readMix struct {
	rig     *fabricRig
	mutator *ctlrpc.Client
	slices  []string
	streams [][]readOp
	next    []int

	tr    *tracer
	lanes []*lane
}

func setupReadMix(e *env, tr *tracer) (instance, error) {
	w := &readMix{tr: tr}
	rig, err := newFabricRig(e.conns + 1)
	if err != nil {
		return nil, err
	}
	w.rig = rig
	w.mutator = rig.clients[e.conns]
	cube := 0
	for i := 0; i < 8; i++ {
		name, n := fmt.Sprintf("s%d", i), i%4+1
		cubes := make([]int, n)
		for j := range cubes {
			cubes[j] = cube
			cube++
		}
		if _, _, err := w.mutator.Ensure(name, shapeOf(n), cubes); err != nil {
			rig.close()
			return nil, err
		}
		w.slices = append(w.slices, name)
	}
	callers := e.conns * callersPerConn
	w.next = make([]int, callers)
	for c := 0; c < callers; c++ {
		w.streams = append(w.streams, readStream(e.seed, c, readBlocks, w.slices))
		if tr != nil {
			w.lanes = append(w.lanes, tr.newLane())
		}
	}
	warm(readWarmup, callers, w.caller)
	return w, nil
}

// check decodes one read and compares it with the fabric's known state.
func (w *readMix) check(cl *ctlrpc.Client, op readOp) error {
	switch op.Kind {
	case readStatus:
		st, err := cl.Status()
		if err != nil {
			return err
		}
		if n := len(st.Slices); n != len(w.slices) && n != len(w.slices)+1 {
			return fmt.Errorf("status lists %d slices, want %d (+1 scratch)", n, len(w.slices))
		}
	case readSlice:
		sl, err := cl.Slice(op.Slice)
		if err != nil {
			return err
		}
		if sl.Name != op.Slice || sl.Circuits == 0 {
			return fmt.Errorf("slice %q read back as %+v", op.Slice, sl)
		}
	default:
		text, err := cl.Metrics()
		if err != nil {
			return err
		}
		if text == "" {
			return fmt.Errorf("metrics came back empty")
		}
	}
	return nil
}

func (w *readMix) caller(p *phase, c int) {
	cl := w.rig.clients[c/callersPerConn]
	ctx := context.Background()
	stream := w.streams[c]
	for ; !p.stop.Load(); w.next[c]++ {
		i := w.next[c]
		op := stream[i%len(stream)]
		if i%checkEvery == checkEvery-1 {
			if err := w.check(cl, op); err != nil {
				p.failed.Add(1)
			}
			p.counts[c].n.Add(1)
			continue
		}
		sample := i%sampleEvery == 0
		var sent time.Time
		if sample {
			sent = time.Now()
		}
		// Results are discarded undecoded between checks: the loop
		// measures the protocol, not the client's JSON decoder.
		var err error
		switch op.Kind {
		case readStatus:
			err = cl.CallContext(ctx, ctlrpc.MethodStatus, nil, nil)
		case readSlice:
			err = cl.CallContext(ctx, ctlrpc.MethodSlice, ctlrpc.NameParams{Name: op.Slice}, nil)
		default:
			err = cl.CallContext(ctx, ctlrpc.MethodMetrics, nil, nil)
		}
		if sample {
			done := time.Now()
			p.lat[c] = append(p.lat[c], done.Sub(sent).Seconds())
			if w.tr != nil {
				w.lanes[c].add(0, 0, 0, "client.read", sent, done)
			}
		}
		if err != nil {
			p.failed.Add(1)
		}
		p.counts[c].n.Add(1)
	}
}

func (w *readMix) measure(seconds float64) phaseResult {
	ol := &openLoop{period: mutatorPeriod, lateAfter: mutatorPeriod / 10}
	var wg sync.WaitGroup
	res := runClosed(seconds, len(w.streams), func(p *phase, c int) {
		if c == 0 {
			// The first reader to start also launches the mutator, so
			// both streams share the phase's stop flag.
			ol.start = time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				ol.run(&p.stop, func(i int) error {
					if i%2 == 0 {
						_, _, err := w.mutator.Ensure("scratch", shapeOf(4), scratchCubes)
						return err
					}
					return w.mutator.Destroy("scratch")
				}, &p.failed)
			}()
		}
		w.caller(p, c)
	})
	wg.Wait()
	res.others = int64(len(ol.fromDue))
	res.extra = map[string]float64{
		"client.mutator_p50_us": median(ol.fromDue) * 1e6,
		"client.late_share":     ol.lateShare(),
		"ctlrpc.id_mismatches":  unknownResponses(w.rig.clients),
	}
	return res
}

func (w *readMix) verify() (int, []error) {
	var errs []error
	if err := w.mutator.DestroyIfPresent("scratch"); err != nil {
		errs = append(errs, err)
	}
	st, err := w.mutator.Status()
	if err != nil {
		errs = append(errs, err)
	} else if len(st.Slices) != len(w.slices) {
		errs = append(errs, fmt.Errorf("fabric ends with slices %v, want %v", st.Slices, w.slices))
	}
	if n := unknownResponses(w.rig.clients); n != 0 {
		errs = append(errs, fmt.Errorf("%v responses with unknown ids", n))
	}
	if err := w.rig.close(); err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, checkFabric("fabric", w.rig.fabric)...)
	return 4, errs
}

func (w *readMix) registry() *telemetry.Registry { return w.rig.reg }

func (w *readMix) close() error { return w.rig.close() }
