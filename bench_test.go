package lightwave_test

import (
	"io"
	"testing"

	"lightwave/internal/core"
	"lightwave/internal/figures"
	"lightwave/internal/topo"
)

// BenchmarkFigures re-runs every entry of the figure registry and reports
// each of its rows under the row's key (dB-mean-loss, LLM1-speedup,
// reconf-utilization-%, ...), so `go test -bench Figures` doubles as the
// reproduction harness; cmd/experiments prints the same entries' reports.
func BenchmarkFigures(b *testing.B) {
	for _, e := range figures.All() {
		b.Run(e.Name, func(b *testing.B) {
			var rows []figures.Row
			for i := 0; i < b.N; i++ {
				var err error
				if rows, err = e.Run(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows {
				b.ReportMetric(r.Measured, r.Key)
			}
		})
	}
}

// BenchmarkComposeFullPod measures the control plane composing a full
// 4096-chip slice (3072 circuits across 48 OCSes) — the end-to-end cost of
// a pod-scale reconfiguration.
func BenchmarkComposeFullPod(b *testing.B) {
	cubes := make([]int, 64)
	for i := range cubes {
		cubes[i] = i
	}
	for i := 0; i < b.N; i++ {
		fab, err := core.New(core.DefaultConfig(64))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fab.ComposeSlice("big", topo.Shape{X: 16, Y: 16, Z: 16}, cubes); err != nil {
			b.Fatal(err)
		}
	}
}
