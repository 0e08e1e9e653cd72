package main

import (
	"fmt"

	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
	"lightwave/internal/sim"
	"lightwave/internal/topo"
)

// All op streams are generated from the seed before the timed phase; the
// program under test sees only these inputs. Streams are balanced — every
// block holds each kind of request equally often and the seed only
// permutes it — so the work per window is the same for every seed and the
// run-to-run spread measures the program, not the draw.

const (
	numPods     = 4
	cubesPerPod = 64
)

func podName(i int) string { return fmt.Sprintf("pod%d", i) }

// convergeSizes are the slice sizes, in cubes, intent_converge cycles
// through. Composing costs about 1.4 ms per cube, so the latency
// distribution has one mode per size; an odd number of equally frequent
// sizes puts the median in the middle of the middle mode, where it is
// steady, not in the gap between two modes, where it is not.
var convergeSizes = []int{1, 2, 3}

// shapeOf maps a cube count (1–4) to a slice shape with that many cubes.
func shapeOf(cubes int) [3]int {
	switch cubes {
	case 1:
		return [3]int{4, 4, 4}
	case 2:
		return [3]int{4, 4, 8}
	case 3:
		return [3]int{4, 4, 12}
	default:
		return [3]int{4, 8, 8}
	}
}

// convergeOp is one cycle of intent_converge: set the slice and wait until
// it is ready, remove it and wait until it is gone.
type convergeOp struct {
	Pod    string
	Slice  string
	Set    ctlrpc.ApplyIntentParams
	Remove ctlrpc.ApplyIntentParams
}

// convergeStream is caller c's cycles: blocks of every (pod, size)
// combination in seeded order, on the caller's own slice names.
func convergeStream(seed uint64, caller, blocks int) []convergeOp {
	rng := sim.Substream(seed, uint64(caller))
	var out []convergeOp
	for b := 0; b < blocks; b++ {
		n := len(convergeSizes)
		for _, k := range rng.Perm(numPods * n) {
			pod, slice := podName(k/n), fmt.Sprintf("c%d-s%d", caller, len(out))
			out = append(out, convergeOp{
				Pod:   pod,
				Slice: slice,
				Set: ctlrpc.ApplyIntentParams{Pod: pod, Slices: []ctlrpc.SliceIntentSpec{
					{Name: slice, Shape: shapeOf(convergeSizes[k%n])}}},
				Remove: ctlrpc.ApplyIntentParams{Pod: pod, Slices: []ctlrpc.SliceIntentSpec{
					{Name: slice, Remove: true}}},
			})
		}
	}
	return out
}

// fleetSlice is one slice of the pre-converged fleet the mutate workloads
// run against.
type fleetSlice struct {
	Pod   string
	Name  string
	Shape [3]int
}

// mutateFleet is the 32-slice fleet: 8 slices per pod, sizes 1–4 twice
// each (20 cubes per pod) in seeded order.
func mutateFleet(seed uint64) []fleetSlice {
	var out []fleetSlice
	for p := 0; p < numPods; p++ {
		perm := sim.Substream(seed, 1000+uint64(p)).Perm(8)
		for i, k := range perm {
			out = append(out, fleetSlice{Pod: podName(p), Name: fmt.Sprintf("m%d-%d", p, i), Shape: shapeOf(k%4 + 1)})
		}
	}
	return out
}

// mutateCaller is what one mutate caller cycles through: drain its OCS,
// re-assert its slice, undrain, re-assert. Every step changes journaled
// state but asks nothing new of the backend.
type mutateCaller struct {
	Slice    fleetSlice
	OCS      int
	Reassert ctlrpc.ApplyIntentParams
}

// mutateCallers assigns each caller its own slice and its own OCS id, both
// by seeded permutation, so no two callers touch the same intent key.
func mutateCallers(seed uint64, fleetSlices []fleetSlice, callers int) []mutateCaller {
	rng := sim.Substream(seed, 2000)
	slicePerm, ocsPerm := rng.Perm(len(fleetSlices)), rng.Perm(topo.NumOCS)
	out := make([]mutateCaller, callers)
	for c := range out {
		sl := fleetSlices[slicePerm[c%len(slicePerm)]]
		out[c] = mutateCaller{
			Slice: sl,
			OCS:   ocsPerm[c%len(ocsPerm)],
			Reassert: ctlrpc.ApplyIntentParams{Pod: sl.Pod, Slices: []ctlrpc.SliceIntentSpec{
				{Name: sl.Name, Shape: sl.Shape}}},
		}
	}
	return out
}

// Read kinds of status_read_mix.
const (
	readStatus = iota
	readSlice
	readMetrics
)

// readOp is one read request: its kind and, for a slice read, the name.
type readOp struct {
	Kind  int
	Slice string
}

// readStream is caller c's reads: blocks of 100 holding exactly 80 status,
// 19 slice and 1 metrics request in seeded order.
func readStream(seed uint64, caller, blocks int, slices []string) []readOp {
	rng := sim.Substream(seed, 3000+uint64(caller))
	var out []readOp
	for b := 0; b < blocks; b++ {
		for _, k := range rng.Perm(100) {
			switch {
			case k < 80:
				out = append(out, readOp{Kind: readStatus})
			case k < 99:
				out = append(out, readOp{Kind: readSlice, Slice: slices[rng.Intn(len(slices))]})
			default:
				out = append(out, readOp{Kind: readMetrics})
			}
		}
	}
	return out
}

// journalStream is recover_cold's intent history: n journal entries of
// seeded churn over the pods (slice sets and removals within a cube
// budget, OCS drains and undrains), closed by a fixed-size tail that
// lifts every drain and leaves ten slices per pod, so every seed recovers
// a fleet of the same size from a log of the same length.
func journalStream(seed uint64, n int) []fleet.JournalEntry {
	const tailPerPod = 10
	rng := sim.Substream(seed, 4000)
	out := make([]fleet.JournalEntry, 0, n)
	for p := 0; p < numPods; p++ {
		out = append(out, fleet.JournalEntry{Op: fleet.OpAddPod, Pod: podName(p)})
	}
	type podState struct {
		live    map[string]int // slice → cubes
		names   []string       // live slices in insertion order
		cubes   int
		drained map[int]bool
	}
	pods := make([]*podState, numPods)
	for p := range pods {
		pods[p] = &podState{live: map[string]int{}, drained: map[int]bool{}}
	}
	remove := func(p int, i int) fleet.JournalEntry {
		st := pods[p]
		name := st.names[i]
		st.cubes -= st.live[name]
		delete(st.live, name)
		st.names = append(st.names[:i], st.names[i+1:]...)
		return fleet.JournalEntry{Op: fleet.OpRemoveSlice, Pod: podName(p), Name: name}
	}
	set := func(p int, name string, cubes int) fleet.JournalEntry {
		st := pods[p]
		if old, ok := st.live[name]; ok {
			st.cubes -= old
		} else {
			st.names = append(st.names, name)
		}
		st.live[name] = cubes
		st.cubes += cubes
		sh := shapeOf(cubes)
		return fleet.JournalEntry{Op: fleet.OpSetSlice, Pod: podName(p),
			Slice: &fleet.SliceIntent{Name: name, Shape: topo.Shape{X: sh[0], Y: sh[1], Z: sh[2]}}}
	}
	// The tail costs at most one removal per live slice (≤ 48 per pod at
	// one cube each), one undrain per OCS and tailPerPod sets.
	tailMax := numPods * (48 + topo.NumOCS + tailPerPod)
	for len(out) < n-tailMax {
		p := rng.Intn(numPods)
		st := pods[p]
		switch k := rng.Intn(10); {
		case k < 5:
			cubes := rng.Intn(4) + 1
			if st.cubes+cubes > 48 {
				out = append(out, remove(p, rng.Intn(len(st.names))))
				continue
			}
			out = append(out, set(p, fmt.Sprintf("r%d-%d", p, rng.Intn(64)), cubes))
		case k < 8:
			if len(st.names) > 0 {
				out = append(out, remove(p, rng.Intn(len(st.names))))
			}
		default:
			o := rng.Intn(topo.NumOCS)
			op := fleet.OpDrainOCS
			if st.drained[o] {
				op = fleet.OpUndrainOCS
			}
			st.drained[o] = !st.drained[o]
			out = append(out, fleet.JournalEntry{Op: op, Pod: podName(p), OCS: o})
		}
	}
	for p, st := range pods {
		for len(st.names) > 0 {
			out = append(out, remove(p, 0))
		}
		for o := 0; o < topo.NumOCS; o++ {
			if st.drained[o] {
				out = append(out, fleet.JournalEntry{Op: fleet.OpUndrainOCS, Pod: podName(p), OCS: o})
			}
		}
		for i := 0; i < tailPerPod; i++ {
			out = append(out, set(p, fmt.Sprintf("k%d-%d", p, rng.Intn(1000)*tailPerPod+i), i%4+1))
		}
	}
	// Pad with re-asserts of the last slice so every seed's log has
	// exactly n records.
	last := out[len(out)-1]
	for len(out) < n {
		out = append(out, last)
	}
	return out
}
