package collective

import (
	"math"
	"testing"

	"lightwave/internal/sim"
)

func TestSimulationMatchesRingFormula(t *testing.T) {
	link := Link{BandwidthBps: 10e9, LatencySec: 2e-6}
	for _, n := range []int{2, 4, 16, 64} {
		r := Ring{N: n, Link: link}
		want, _ := r.AllReduceTime(64e6)
		got := SimulateRingAllReduce(n, 64e6, link)
		if math.Abs(got-want)/want > 1e-9 {
			t.Fatalf("n=%d: sim %v vs formula %v", n, got, want)
		}
	}
}

func TestSimulationMatchesTorusFormula(t *testing.T) {
	link := ICILink()
	dims := []int{4, 8, 16}
	tr := Torus{Dims: dims, Link: link}
	want, _ := tr.AllReduceTime(128e6)
	got := SimulateTorusAllReduce(dims, 128e6, link)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("sim %v vs formula %v", got, want)
	}
}

func TestSimulateDegenerate(t *testing.T) {
	if SimulateRingAllReduce(1, 1e6, ICILink()) != 0 {
		t.Fatal("1-node ring should be free")
	}
	if SimulateRingAllReduce(4, 0, ICILink()) != 0 {
		t.Fatal("zero payload should be free")
	}
}

// The event-timed simulator below is the oracle the closed-form ring and
// torus models are checked against; nothing outside tests runs it.
// SimulateRingAllReduce runs an event-timed simulation of the
// bidirectional-ring all-reduce: 2(n−1) steps, each a neighbor exchange of
// S/(2n) bytes per direction, with every member synchronizing at step
// boundaries (the synchronous execution model of the XLA collectives). It
// returns the completion time and is used to validate the closed-form
// model.
func SimulateRingAllReduce(n int, s float64, link Link) float64 {
	if n <= 1 || s <= 0 {
		return 0
	}
	var q sim.Queue
	chunk := s / (2 * float64(n))
	stepTime := chunk/link.BandwidthBps + link.LatencySec
	steps := 2 * (n - 1)

	// Each member posts its step completion; the barrier fires when all
	// members of the step have completed, then schedules the next step.
	var runStep func(step int)
	pending := 0
	runStep = func(step int) {
		if step >= steps {
			return
		}
		pending = n
		for m := 0; m < n; m++ {
			q.After(stepTime, func() {
				pending--
				if pending == 0 {
					runStep(step + 1)
				}
			})
		}
	}
	runStep(0)
	for q.Step() {
	}
	return float64(q.Now())
}

// SimulateTorusAllReduce composes ring simulations per dimension, mirroring
// Torus.AllReduceTime phase by phase.
func SimulateTorusAllReduce(dims []int, s float64, link Link) float64 {
	total := 0.0
	cur := s
	sizes := make([]float64, 0, len(dims))
	for _, d := range dims {
		total += simulateRingPhase(d, cur, link)
		sizes = append(sizes, cur)
		cur /= float64(d)
	}
	for i := len(dims) - 1; i >= 0; i-- {
		total += simulateRingPhase(dims[i], sizes[i], link)
	}
	return total
}

// simulateRingPhase simulates one reduce-scatter (or all-gather) phase.
func simulateRingPhase(n int, s float64, link Link) float64 {
	if n <= 1 || s <= 0 {
		return 0
	}
	var q sim.Queue
	chunk := s / (2 * float64(n))
	stepTime := chunk/link.BandwidthBps + link.LatencySec
	steps := n - 1
	var runStep func(step int)
	pending := 0
	runStep = func(step int) {
		if step >= steps {
			return
		}
		pending = n
		for m := 0; m < n; m++ {
			q.After(stepTime, func() {
				pending--
				if pending == 0 {
					runStep(step + 1)
				}
			})
		}
	}
	runStep(0)
	for q.Step() {
	}
	return float64(q.Now())
}
