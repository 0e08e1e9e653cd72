package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/ocs"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
	"lightwave/internal/wal"
)

// The probes are the traced run's direct-call microphases: each layer's
// entry point called straight from the benchmark, with no other layer in
// the way, on fixed inputs. They run in every traced run, so a layer's
// own cost can be compared across runs even on a workload that never
// enters it.

// perCall times n calls of fn one by one and returns the median in
// seconds.
func perCall(n int, fn func(i int) error) (float64, error) {
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		d = append(d, time.Since(t0).Seconds())
	}
	return median(d), nil
}

// probeOCS times Connect and Disconnect on a standalone Palomar switch.
func probeOCS(m metrics) error {
	sw, err := ocs.New(ocs.DefaultConfig())
	if err != nil {
		return err
	}
	ports := sw.UsablePorts()
	var connect, disconnect []float64
	for round := 0; round < 4; round++ {
		for p := 0; p < ports; p++ {
			t0 := time.Now()
			if _, err := sw.Connect(ocs.PortID(p), ocs.PortID((p+round)%ports)); err != nil {
				return err
			}
			connect = append(connect, time.Since(t0).Seconds())
		}
		for p := 0; p < ports; p++ {
			t0 := time.Now()
			if err := sw.Disconnect(ocs.PortID(p)); err != nil {
				return err
			}
			disconnect = append(disconnect, time.Since(t0).Seconds())
		}
	}
	m.set("ocs.connect_ns", median(connect)*1e9, "ns")
	m.set("ocs.disconnect_ns", median(disconnect)*1e9, "ns")
	return nil
}

// probeCore times ComposeSlice+DestroySlice of a 1-cube and a 4-cube
// slice on a bare fabric.
func probeCore(m metrics) error {
	f, err := newFabric(telemetry.NewRegistry())
	if err != nil {
		return err
	}
	d, err := perCall(200, func(i int) error {
		n := 1 + 3*(i%2)
		sh := shapeOf(n)
		if _, err := f.ComposeSlice("probe", topo.Shape{X: sh[0], Y: sh[1], Z: sh[2]}, []int{0, 1, 2, 3}[:n]); err != nil {
			return err
		}
		return f.DestroySlice("probe")
	})
	m.set("core.compose_direct_us", d*1e6, "us")
	return err
}

// probeFleet times Manager.SetSliceIntent and DrainOCS/UndrainOCS called
// directly, with no journal and no RPC: the fleet layer's own intake cost.
func probeFleet(m metrics) error {
	mgr := fleet.NewManager(fleet.Options{})
	defer mgr.Close()
	f, err := newFabric(telemetry.NewRegistry())
	if err != nil {
		return err
	}
	if err := mgr.AddPod("pod0", fleet.NewFabricBackend(f, nil)); err != nil {
		return err
	}
	in := fleet.SliceIntent{Name: "probe", Shape: topo.Shape{X: 4, Y: 4, Z: 4}}
	d, err := perCall(4000, func(i int) error {
		switch i % 4 {
		case 0:
			return mgr.DrainOCS("pod0", 7)
		case 2:
			return mgr.UndrainOCS("pod0", 7)
		default:
			return mgr.SetSliceIntent("pod0", in)
		}
	})
	m.set("fleet.intent_direct_us", d*1e6, "us")
	return err
}

// probeWAL times Log.Append with real fsync from one goroutine and from
// GOMAXPROCS goroutines at once — does group commit batch when it is
// allowed to? — then replay, checkpoint and snapshot load of a small
// NoSync log through OpenStore.
func probeWAL(m metrics, stateRoot string, seed uint64) error {
	dir, err := os.MkdirTemp(stateRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, 96) // about one journaled slice intent
	appendProbe := func(sub string, writers, each int) (float64, error) {
		log, _, err := wal.Open(dir+"/"+sub, wal.Options{})
		if err != nil {
			return 0, err
		}
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			first error
		)
		t0 := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := log.Append(wal.RecordFleet, payload); err != nil {
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		perAppend := time.Since(t0).Seconds() / float64(writers*each)
		if err := log.Close(); err != nil && first == nil {
			first = err
		}
		return perAppend, first
	}
	serial, err := appendProbe("serial", 1, 300)
	if err != nil {
		return err
	}
	parallel, err := appendProbe("parallel", runtime.GOMAXPROCS(0), 300)
	if err != nil {
		return err
	}
	m.set("wal.append_serial_us", serial*1e6, "us")
	m.set("wal.append_parallel_us", parallel*1e6, "us")

	const records = 20000
	entries := journalStream(seed, records)
	replayDir := dir + "/replay"
	if _, err := journalInto(replayDir, entries, 0); err != nil {
		return err
	}
	open := func() (*wal.Store, float64, error) {
		t0 := time.Now()
		st, err := wal.OpenStore(replayDir, wal.Options{NoSync: true})
		return st, time.Since(t0).Seconds(), err
	}
	st, replayS, err := open()
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = st.Checkpoint()
	checkpointS := time.Since(t0).Seconds()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st, loadS, err := open()
	if err != nil {
		return err
	}
	if n := st.Status().FleetSlices; n != numPods*10 {
		st.Close()
		return fmt.Errorf("snapshot load recovered %d slices, want %d", n, numPods*10)
	}
	m.set("wal.replay_us_per_record", replayS/records*1e6, "us")
	m.set("wal.checkpoint_ms", checkpointS*1e3, "ms")
	m.set("wal.snapshot_load_ms", loadS*1e3, "ms")
	return st.Close()
}

// runProbes runs every microphase.
func runProbes(m metrics, stateRoot string, seed uint64) error {
	if err := probeOCS(m); err != nil {
		return fmt.Errorf("ocs probe: %w", err)
	}
	if err := probeCore(m); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := probeFleet(m); err != nil {
		return fmt.Errorf("fleet probe: %w", err)
	}
	if err := probeWAL(m, stateRoot, seed); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	return nil
}
