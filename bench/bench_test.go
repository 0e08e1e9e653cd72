package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/lint"
	"lightwave/internal/telemetry"
	"lightwave/internal/wal"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestWindowRates(t *testing.T) {
	rates, cpu := windowRates([]boundary{
		{at: 0, ops: 0, cpuS: 1},
		{at: 1, ops: 100, cpuS: 1.5},
		{at: 2, ops: 100, cpuS: 1.6}, // idle window: no rate
		{at: 4, ops: 500, cpuS: 2.4},
	})
	if !reflect.DeepEqual(rates, []float64{100, 200}) {
		t.Errorf("rates = %v, want [100 200]", rates)
	}
	if len(cpu) != 2 || cpu[0] != 0.005 || math.Abs(cpu[1]-0.002) > 1e-12 {
		t.Errorf("cpu per op = %v, want [0.005 0.002]", cpu)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 7}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	o := &openLoop{start: start, period: 50 * time.Millisecond, lateAfter: 5 * time.Millisecond}
	if got := o.due(3); !got.Equal(start.Add(150 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// On time: sent 1 ms after due, done 3 ms after due.
	o.record(2, o.due(2).Add(time.Millisecond), o.due(2).Add(3*time.Millisecond))
	// A stall delayed the send by 20 ms; the request itself took 2 ms. It
	// is charged 22 ms and counted late.
	o.record(3, o.due(3).Add(20*time.Millisecond), o.due(3).Add(22*time.Millisecond))
	if len(o.fromDue) != 2 || math.Abs(o.fromDue[0]-0.003) > 1e-9 || math.Abs(o.fromDue[1]-0.022) > 1e-9 {
		t.Errorf("latencies from due time = %v, want [0.003 0.022]", o.fromDue)
	}
	if o.late != 1 || o.lateShare() != 0.5 {
		t.Errorf("late = %d share %v, want 1 and 0.5", o.late, o.lateShare())
	}
}

// streams generates every op stream for a seed, as bytes.
func streams(t *testing.T, seed uint64) []byte {
	t.Helper()
	fleetSlices := mutateFleet(seed)
	b, err := json.Marshal([]any{
		convergeStream(seed, 0, 2), convergeStream(seed, 1, 2),
		fleetSlices, mutateCallers(seed, fleetSlices, 16),
		readStream(seed, 3, 2, []string{"a", "b", "c"}),
		journalStream(seed, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameStreams(t *testing.T) {
	a, b, c := streams(t, 7), streams(t, 7), streams(t, 8)
	if string(a) != string(b) {
		t.Error("the same seed generated different op streams")
	}
	if string(a) == string(c) {
		t.Error("different seeds generated the same op streams")
	}
}

func TestStreamsAreBalanced(t *testing.T) {
	// Every converge block holds each (pod, size) combination once.
	block := numPods * len(convergeSizes)
	st := convergeStream(3, 0, 3)
	if len(st) != 3*block {
		t.Fatalf("converge stream has %d ops, want %d", len(st), 3*block)
	}
	for b := 0; b < 3; b++ {
		seen := map[string]int{}
		for _, op := range st[b*block : (b+1)*block] {
			sh := op.Set.Slices[0].Shape
			seen[op.Pod+"/"+string(rune('0'+sh[0]*sh[1]*sh[2]/64))]++
		}
		if len(seen) != block {
			t.Errorf("converge block %d has %d distinct (pod, size) pairs, want %d", b, len(seen), block)
		}
	}
	// Every read block holds exactly 80/19/1.
	reads := readStream(3, 0, 2, []string{"a"})
	for b := 0; b < 2; b++ {
		var kinds [3]int
		for _, op := range reads[b*100 : (b+1)*100] {
			kinds[op.Kind]++
		}
		if kinds != [3]int{80, 19, 1} {
			t.Errorf("read block %d mix = %v, want [80 19 1]", b, kinds)
		}
	}
	// Mutate callers own distinct slices and, per pod, distinct OCS ids.
	fleetSlices := mutateFleet(3)
	owned := map[string]bool{}
	for _, mc := range mutateCallers(3, fleetSlices, 32) {
		for _, k := range []string{sliceKey(mc.Slice.Pod, mc.Slice.Name), ocsKey(mc.Slice.Pod, mc.OCS)} {
			if owned[k] {
				t.Errorf("intent key %s has two owners", k)
			}
			owned[k] = true
		}
	}
}

func TestJournalStreamEndsInTheFixedFleet(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		entries := journalStream(seed, 3000)
		if len(entries) != 3000 {
			t.Fatalf("seed %d: %d entries, want 3000", seed, len(entries))
		}
		fs := wal.NewFleetState()
		for _, e := range entries {
			fs.Apply(e)
		}
		if len(fs.Pods) != numPods {
			t.Fatalf("seed %d: %d pods, want %d", seed, len(fs.Pods), numPods)
		}
		for name, p := range fs.Pods {
			cubes := 0
			for _, in := range p.Slices {
				cubes += in.Shape.Cubes()
			}
			if len(p.Slices) != 10 || cubes != 23 || len(p.DrainedOCS) != 0 {
				t.Errorf("seed %d %s: %d slices on %d cubes, drains %v; want 10 on 23, none",
					seed, name, len(p.Slices), cubes, p.DrainedOCS)
			}
		}
	}
	// A churn entry must never exceed the cube budget a pod can realise.
	fs := wal.NewFleetState()
	for i, e := range journalStream(9, 3000) {
		fs.Apply(e)
		if e.Op != fleet.OpSetSlice {
			continue
		}
		cubes := 0
		for _, in := range fs.Pods[e.Pod].Slices {
			cubes += in.Shape.Cubes()
		}
		if cubes > cubesPerPod {
			t.Fatalf("entry %d puts %d cubes on %s", i, cubes, e.Pod)
		}
	}
}

// namesWithUnits lists metrics as sorted "name unit" strings.
func namesWithUnits(m metrics) []string {
	var out []string
	for n, v := range m {
		out = append(out, n+" "+v.Unit)
	}
	sort.Strings(out)
	return out
}

func contractMetrics(ms []gatedMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestContractNamesMatch keeps BENCHMARK.json and the program in step: the
// workloads, the end-to-end metrics and the per-layer metrics it names are
// exactly the ones a run emits.
func TestContractNamesMatch(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var have, want []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	for _, w := range c.Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(have, want) {
		t.Errorf("workloads %v, BENCHMARK.json names %v", have, want)
	}

	e2e := metrics{}
	endToEnd(e2e, phaseResult{}, nil)
	if got, want := namesWithUnits(e2e), contractMetrics(c.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("untraced run emits %v, BENCHMARK.json names %v", got, want)
	}

	layers := metrics{}
	layerMetrics(layers, phaseResult{}, nil, procStats{reg: telemetry.NewRegistry()})
	layers.set("trace.overhead_share", 0, "share")
	if err := runProbes(layers, t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}
	if got, want := namesWithUnits(layers), contractMetrics(c.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run emits %v\nBENCHMARK.json names %v", got, want)
	}
}

// TestExpectedDigestsCommitted checks that both simulator workloads have a
// committed digest of the right form; that the simulators still reproduce
// them is checked by every run of those workloads.
func TestExpectedDigestsCommitted(t *testing.T) {
	for _, w := range []string{"sim_flow", "sim_sched"} {
		b, err := os.ReadFile(expectedPath(".", w))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 65 || b[64] != '\n' {
			t.Errorf("%s: want 64 hex digits and a newline, got %q", w, b)
		}
	}
}

// TestLintClean holds this package to the repo's static invariants
// (randomness only through sim.Rand, no math/rand, …): it is a module of
// its own, so the root TestLintClean does not reach it.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the package and its imports")
	}
	diags, err := lint.Run(".", []string{"./..."}, lint.DefaultConfig(), lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
