package figures

import (
	"io"
	"math"
	"runtime"
	"testing"

	"lightwave/internal/dcn"
	"lightwave/internal/par"
	"lightwave/internal/telemetry"
)

// TestSimFlowWorkCounts pins the deterministic work of the three entries
// the sim_flow ledger workload times: flow-simulator runs, events, the
// max-min rounds a filling runs and the rounds it keeps from the last
// one, the logged rounds its cursor reaches (kept or dropped: every one
// from the resume round to the end of the log), the link states
// fillings rebuild or update (link updates), and the cells the epoch
// flow-replay sweeps. Wall time on these simulators moves
// with code layout; these counts move only when the simulated work does,
// so they are compared exactly. Run plus kept rounds are the rounds the
// per-flow max-min engine ran from zero on every event (the fromZero
// column): resuming a filling must not change how many rounds it takes,
// so a re-pin of the run/kept split must keep the sum. te and chaos
// simulate each distinct (topology, epoch) cell once — 60 of te's 72
// cells (online equals static before the first reconfiguration) and 7 of
// chaos's 12 (intended equals degraded outside the fault epochs).
func TestSimFlowWorkCounts(t *testing.T) {
	for _, c := range []struct {
		entry                                  string
		runs, events, rounds, reused, fromZero int64
		walked, linkUpdates, replayTrials      int64
	}{
		{"dcn", 2, 11981, 20966, 800651, 821617, 465001, 51331, 0},
		{"te", 60, 157437, 212650, 4020112, 4232762, 2467643, 442741, 60},
		{"chaos", 7, 42178, 133011, 1035492, 1168503, 620389, 250503, 7},
	} {
		t.Run(c.entry, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			prevDCN, prevPar := dcn.Registry(), par.Registry()
			dcn.SetRegistry(reg)
			par.SetRegistry(reg)
			defer dcn.SetRegistry(prevDCN)
			defer par.SetRegistry(prevPar)

			entries, err := Select([]string{c.entry})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := entries[0].Run(io.Discard); err != nil {
				t.Fatal(err)
			}
			for _, m := range []struct {
				name string
				want int64
			}{
				{"dcn_flowsim_runs_total", c.runs},
				{"dcn_flowsim_events_total", c.events},
				{"dcn_flowsim_recompute_rounds_total", c.rounds},
				{"dcn_flowsim_reused_rounds_total", c.reused},
				{"dcn_flowsim_rounds_walked_total", c.walked},
				{"dcn_flowsim_link_updates_total", c.linkUpdates},
				{"par_te_flow_replay_trials_total", c.replayTrials},
			} {
				if got := reg.Counter(m.name).Value(); got != m.want {
					t.Errorf("%s = %d, want %d", m.name, got, m.want)
				}
			}
			if c.rounds+c.reused != c.fromZero {
				t.Errorf("pinned %d run + %d kept rounds, want %d in all", c.rounds, c.reused, c.fromZero)
			}
		})
	}
}

// TestSimFlowAllocs bounds the heap one sim_flow pass (the dcn, te and
// chaos entries) allocates, the least of three warm passes. A pass took
// 15.3 MB in 84.9 k allocations when every Simulate call built its engine
// from scratch; Simulate's engines keep their arrays from run to run, and
// a pass takes about 0.9 MB in 5.5 k, the entries' own setup.
func TestSimFlowAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops engines at random")
	}
	const maxBytes, maxAllocs = 2_000_000, 10_000
	entries, err := Select([]string{"dcn", "te", "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		for _, e := range entries {
			if _, err := e.Run(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	bytes, allocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	t.Logf("one pass: %d bytes, %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("one pass allocates %d bytes in %d allocations, want at most %d in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
