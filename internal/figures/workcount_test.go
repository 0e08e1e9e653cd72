package figures

import (
	"io"
	"testing"

	"lightwave/internal/dcn"
	"lightwave/internal/par"
	"lightwave/internal/telemetry"
)

// TestSimFlowWorkCounts pins the deterministic work of the three entries
// the sim_flow ledger workload times: flow-simulator runs, events, the
// max-min rounds a filling runs and the rounds it keeps from the last
// one, and the cells the epoch flow-replay sweeps. Wall time on these
// simulators moves with code layout; these counts move only when the
// simulated work does, so they are compared exactly. Run plus kept
// rounds are the rounds the per-flow max-min engine ran from zero on
// every event (dcn 821617, te 4232762, chaos 1168503): resuming a filling
// must not change how many rounds it takes. te and chaos simulate each distinct
// (topology, epoch) cell once — 60 of te's 72 cells (online equals static
// before the first reconfiguration) and 7 of chaos's 12 (intended equals
// degraded outside the fault epochs).
func TestSimFlowWorkCounts(t *testing.T) {
	for _, c := range []struct {
		entry                        string
		runs, events, rounds, reused int64
		replayTrials                 int64
	}{
		{"dcn", 2, 11981, 100476, 721141, 0},
		{"te", 60, 157437, 696651, 3536111, 60},
		{"chaos", 7, 42178, 199479, 969024, 7},
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
				{"par_te_flow_replay_trials_total", c.replayTrials},
			} {
				if got := reg.Counter(m.name).Value(); got != m.want {
					t.Errorf("%s = %d, want %d", m.name, got, m.want)
				}
			}
		})
	}
}
