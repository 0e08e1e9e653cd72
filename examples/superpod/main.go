// Superpod operations: run a full 64-cube fabric through a realistic
// sequence — compose several differently-shaped slices for different
// models, feed BER telemetry through the anomaly detector, break hardware
// (an OCS driver board and a cube), and watch the control plane keep the
// slices alive.
//
//	go run ./examples/superpod
package main

import (
	"fmt"
	"log"
	"log/slog"
	"os"

	"lightwave/internal/core"
	"lightwave/internal/mlperf"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

func main() {
	cfg := core.DefaultConfig(64)
	cfg.Metrics = telemetry.NewRegistry()
	// Alerts print as they happen, one slog record each.
	cfg.Log = slog.New(slog.NewTextHandler(os.Stdout, nil))
	fabric, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Three jobs with different shapes, chosen by the mlperf optimizer for
	// different models on partial allocations.
	sys := mlperf.DefaultSystem()
	jobs := []struct {
		name  string
		model mlperf.LLM
		cubes int
	}{
		{"llm0-train", mlperf.LLM0(), 32},
		{"llm2-eval", mlperf.LLM2(), 16},
		{"ablation", mlperf.LLM1(), 8},
	}
	next := 0
	for _, j := range jobs {
		res, err := sys.OptimizeSlice(j.model, j.cubes)
		if err != nil {
			log.Fatalf("%s: %v", j.name, err)
		}
		cubes := make([]int, j.cubes)
		for i := range cubes {
			cubes[i] = next
			next++
		}
		sl, err := fabric.ComposeSlice(j.name, res.Best.Shape, cubes)
		if err != nil {
			log.Fatalf("%s: %v", j.name, err)
		}
		fmt.Printf("composed %-12s shape %-9s on %2d cubes (%4d circuits, margin %.2f dB)\n",
			sl.Name, sl.Shape, len(sl.Cubes), len(sl.Circuits), sl.WorstMarginDB)
	}
	fmt.Printf("pod: %d live circuits, %d free cubes\n\n",
		fabric.TotalCircuits(), len(fabric.FreeCubes()))

	// Telemetry: healthy fleet readings, then a degrading link.
	for i := 0; i < 20; i++ {
		if _, err := fabric.ObserveLinkBER(topo.OCSID(3), 17, 1.2e-6); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := fabric.ObserveLinkBER(topo.OCSID(3), 17, 8e-4); err != nil { // above the KP4 threshold
		log.Fatal(err)
	}

	// Hardware faults: an HV driver board on OCS 5 drops circuits; then a
	// cube fails and the fabric swaps in a spare.
	sw, _ := fabric.Switch(5)
	dropped, _ := sw.FailDriverBoard(2)
	fmt.Printf("\nOCS 5 driver board 2 failed: %d circuits dropped\n", len(dropped))

	rc, err := fabric.MarkCubeFailed(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cube 10 failed: replacement cube %d swapped into its slice\n", rc)

	// A damaged fiber pair: repatch to one of the OCS's reserved spares and
	// re-establish the circuits that ran through it.
	spare, err := fabric.RepairLink(topo.OCSID(12), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cube 3's fibers on OCS 12 repatched to spare port %d\n", spare)

	sl, _ := fabric.GetSlice("llm0-train")
	fmt.Printf("llm0-train now on cubes %v...\n", sl.Cubes[:8])

	fmt.Printf("\nmetrics: slices=%d swaps=%d\n",
		cfg.Metrics.Counter("fabric.slices_composed").Value(),
		cfg.Metrics.Counter("fabric.cube_swaps").Value())
}
