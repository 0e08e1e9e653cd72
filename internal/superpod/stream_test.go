package superpod

import (
	"testing"

	"lightwave/internal/sched"
	"lightwave/internal/sim"
	"lightwave/internal/walrec"
)

// arrival is one job a consumer submitted, at the virtual time it did.
type arrival struct {
	t   float64
	job sched.JobSpec
}

// submitLog is a scheduler journal that keeps the submitted jobs: it reads
// each record in the scheduler's format (op, optional spec, time, …), and
// a submit happens at the time of the advance before it.
type submitLog struct {
	now      float64
	arrivals []arrival
}

func (l *submitLog) Append(p []byte) (uint64, error) {
	d := walrec.NewDecoder(p)
	op := walrec.DecodeOp(&d, sched.JournalOps)
	var job sched.JobSpec
	if d.Bool() {
		job = sched.JobSpec{Cubes: d.Int(), DurationSeconds: d.Float64()}
	}
	switch t := d.Float64(); op {
	case sched.OpAdvance:
		l.now = t
	case sched.OpSubmit:
		l.arrivals = append(l.arrivals, arrival{l.now, job})
	}
	return uint64(len(l.arrivals)), d.Err()
}

// TestConsumersSeeOneArrivalStream holds superpod's two consumers of the
// job stream to sched.Arrivals on one arrival generator: a live policy
// replay submits exactly the iterator's jobs below the horizon, and a
// Runner ticking to the same horizon submits the same ones. sched's
// FuzzJobStream holds Simulate to the same iterator.
func TestConsumersSeeOneArrivalStream(t *testing.T) {
	for _, seed := range []uint64{5, 9, 23} {
		cfg := testConfig()
		cfg.HorizonSeconds = 1200 // a whole number of runner ticks
		cfg.PodLossAtSeconds, cfg.PodRestoreAtSeconds = 0, 0
		cfg.Seed = seed
		cfg = cfg.withDefaults()
		var want []arrival
		for a := sched.NewArrivals(cfg.Mix, sim.Substream(seed, 1)); a.Peek() < cfg.HorizonSeconds; {
			at, job := a.Next()
			want = append(want, arrival{at, job})
		}

		replay := &submitLog{}
		if _, err := runPolicy(cfg, cfg.events(), sched.Reconfigurable{}, replay); err != nil {
			t.Fatal(err)
		}

		lab, _ := testLab(t, seed, 1)
		r, err := NewRunner(RunnerConfig{Manager: lab.Manager, Pods: lab.Pods, InstalledCubes: 8, Mix: cfg.Mix, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// The Runner draws from its own substream (7); hand it the
		// replay's generator so both consume one arrival seed.
		r.arrivals = sched.NewArrivals(r.cfg.Mix, sim.Substream(seed, 1))
		ticked := &submitLog{}
		r.Scheduler().SetJournal(ticked)
		for r.Scheduler().Now() < cfg.HorizonSeconds {
			if err := r.tick(); err != nil {
				t.Fatal(err)
			}
		}

		for _, c := range []struct {
			who string
			got []arrival
		}{{"policy replay", replay.arrivals}, {"runner", ticked.arrivals}} {
			if len(c.got) != len(want) {
				t.Fatalf("seed %d: %s saw %d arrivals, the stream holds %d", seed, c.who, len(c.got), len(want))
			}
			for i := range want {
				if c.got[i] != want[i] {
					t.Fatalf("seed %d: %s arrival %d = %+v, the stream's is %+v", seed, c.who, i, c.got[i], want[i])
				}
			}
		}
	}
}
