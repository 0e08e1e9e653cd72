package sched

import (
	"testing"

	"lightwave/internal/sim"
)

// arrival is one job a consumer submitted, at the virtual time it did.
type arrival struct {
	t   float64
	job JobSpec
}

// submitted reads the arrivals back out of a scheduler's journal: each
// submit happens at the time of the advance before it.
func submitted(entries []JournalEntry) []arrival {
	var out []arrival
	now := 0.0
	for _, e := range entries {
		switch e.Op {
		case OpAdvance:
			now = e.T
		case OpSubmit:
			out = append(out, arrival{now, *e.Spec})
		}
	}
	return out
}

// arrivalsBefore is the reference: the shared iterator on rng, cut at the
// horizon.
func arrivalsBefore(mix JobMix, rng *sim.Rand, horizon float64) []arrival {
	var out []arrival
	for a := NewArrivals(mix, rng); a.Peek() < horizon; {
		t, job := a.Next()
		out = append(out, arrival{t, job})
	}
	return out
}

func sameArrivals(t *testing.T, who string, got, want []arrival) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s saw %d arrivals, the stream holds %d", who, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s arrival %d = %+v, the stream's is %+v", who, i, got[i], want[i])
		}
	}
}

// FuzzJobStream draws streams over any pod count, cube count, horizon,
// fault rate and loss window, and holds what every consumer relies on:
// events come in time order inside the horizon; a cube is never failed
// while the stream holds it failed; every repair is of the cube's own
// open failure; and Simulate submits exactly the arrival iterator's jobs
// at its times. superpod's TestConsumersSeeOneArrivalStream holds its
// two consumers to the same iterator, so one arrival seed means one job
// sequence to all three.
func FuzzJobStream(f *testing.F) {
	f.Add(uint64(5), uint16(20000), uint8(1), uint8(64), uint16(50000), uint16(5000), uint16(0), uint16(0), uint8(30))
	f.Add(uint64(9), uint16(3000), uint8(2), uint8(8), uint16(4000), uint16(600), uint16(1200), uint16(1800), uint8(50))
	f.Add(uint64(11), uint16(9000), uint8(3), uint8(2), uint16(300), uint16(2000), uint16(100), uint16(50), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, horizon uint16, pods, cubes uint8, mtbf, repair, loss, restore uint16, rate uint8) {
		mix := ProductionMix()
		mix.ArrivalRate = float64(rate%200+1) / 1000
		c := Stream{
			Mix: mix, Horizon: float64(horizon%30000) + 1, Pods: int(pods%4) + 1, Cubes: int(cubes%64) + 1,
			Warmup: float64(horizon / 10), MeanRepair: float64(repair), Seed: seed,
			PodLossAt: float64(loss), PodRestoreAt: float64(restore),
		}
		if mtbf > 0 {
			c.CubeMTBF = 500 + float64(mtbf) // at most ~4 000 fault draws per pod
		}
		events := c.Events(sim.NewRand(seed))

		held := make([][]bool, c.Pods)
		for p := range held {
			held[p] = make([]bool, c.Cubes)
		}
		var arrivals []arrival
		for i, ev := range events {
			if i > 0 && ev.At < events[i-1].At {
				t.Fatalf("event %d at %v after event %d at %v", i, ev.At, i-1, events[i-1].At)
			}
			if ev.At < 0 || (ev.At >= c.Horizon && ev.Kind != Warmup && ev.Kind != PodLoss && ev.Kind != PodRestore) {
				t.Fatalf("event %d (kind %d) at %v outside [0, %v)", i, ev.Kind, ev.At, c.Horizon)
			}
			switch ev.Kind {
			case Arrival:
				arrivals = append(arrivals, arrival{ev.At, ev.Job})
			case CubeFail:
				if held[ev.Pod][ev.Cube] {
					t.Fatalf("event %d fails pod %d cube %d, which the stream holds failed", i, ev.Pod, ev.Cube)
				}
				held[ev.Pod][ev.Cube] = true
			case CubeRepair:
				if !held[ev.Pod][ev.Cube] {
					t.Fatalf("event %d repairs pod %d cube %d, which has no open failure", i, ev.Pod, ev.Cube)
				}
				held[ev.Pod][ev.Cube] = false
			}
		}
		sameArrivals(t, "Events", arrivals, arrivalsBefore(mix, sim.NewRand(seed), c.Horizon))

		j := &recordingJournal{}
		cfg := SimConfig{Duration: c.Horizon, Seed: seed, CubeMTBF: c.CubeMTBF, MeanRepair: c.MeanRepair}
		if _, err := simulate(FullPod(), Reconfigurable{}, mix, cfg, j); err != nil {
			t.Fatal(err)
		}
		sameArrivals(t, "Simulate", submitted(j.entries), arrivalsBefore(mix, sim.NewRand(seed), c.Horizon))
	})
}
