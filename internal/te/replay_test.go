package te

import (
	"reflect"
	"testing"

	"lightwave/internal/dcn"
	"lightwave/internal/par"
	"lightwave/internal/telemetry"
)

// TestReplayFlowsCopiesRepeatedCells: a cell whose topology equals an
// earlier row's at the same epoch — here an equal copy, not the same
// pointer — is copied rather than simulated, and reads exactly what
// replaying its row alone reads.
func TestReplayFlowsCopiesRepeatedCells(t *testing.T) {
	mesh, err := dcn.UniformMesh(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dcn.Engineer(6, 10, dcn.SkewedDemand(6, 1e9, 3, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if mesh.SameTrunks(eng) {
		t.Fatal("engineered topology equals the mesh; the test needs two fabrics")
	}
	rows := [][]*dcn.Topology{{mesh, mesh}, {mesh.Clone(), eng}}
	demand := [][][]float64{dcn.UniformDemand(6, 20e9), dcn.SkewedDemand(6, 10e9, 3, 4, 2)}
	w := dcn.Workload{MeanFlowBytes: 1e9, Duration: 0.5}
	sc := dcn.SimConfig{TrunkBps: 50e9, Seed: 3}

	reg := telemetry.NewRegistry()
	prev := par.Registry()
	par.SetRegistry(reg)
	defer par.SetRegistry(prev)
	got := ReplayFlows(rows, demand, w, sc)
	if n := reg.Counter("par_te_flow_replay_trials_total").Value(); n != 3 {
		t.Errorf("simulated %d cells, want 3 of 4", n)
	}
	for r := range rows {
		want := ReplayFlows(rows[r:r+1], demand, w, sc)[0]
		if !reflect.DeepEqual(got[r], want) {
			t.Errorf("row %d = %+v, replayed alone %+v", r, got[r], want)
		}
	}
}
