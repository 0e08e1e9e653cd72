// Command bench is the lightwave perf ledger: seven named workloads that
// drive the control plane and the simulators end to end, the end-to-end
// metrics BENCHMARK.json gates, and a traced mode that decomposes each
// workload by layer. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"lightwave/internal/telemetry"
)

// env is what every workload's set-up receives.
type env struct {
	seed      uint64
	conns     int    // client connections: min(GOMAXPROCS, 4)
	stateRoot string // where WAL directories are created (real fsync)
	benchDir  string // this package's directory (expected/ lives there)
}

// workload is one named set of inputs.
type workload struct {
	name string
	// loop states the load model: closed or open loop and who the callers
	// are, in terms of env.conns (C).
	loop  string
	setup func(e *env, tr *tracer) (instance, error)
}

// instance is one set-up workload, ready to be measured once.
type instance interface {
	// measure runs the timed phase.
	measure(seconds float64) phaseResult
	// verify checks the outputs after the timed phase and returns how
	// many checks it made and which failed.
	verify() (checks int, errs []error)
	// registry is the telemetry.Registry the instance passed to every
	// layer it built.
	registry() *telemetry.Registry
	close() error
}

var workloads = []workload{
	{"intent_converge", "closed loop: C callers on one pipelined client + one watch connection", setupConverge},
	{"mutate_durable", "closed loop: C connections x 8 callers", setupMutate(true)},
	{"mutate_volatile", "closed loop: C connections x 8 callers", setupMutate(false)},
	{"status_read_mix", "closed loop: C connections x 8 readers; open loop: one mutator at 20 ops/s", setupReadMix},
	{"recover_cold", "closed loop: one caller, recoveries back to back", setupRecover},
	{"sim_flow", "closed loop: one caller, passes back to back", setupSim("sim_flow", flowStages)},
	{"sim_sched", "closed loop: one caller, passes back to back", setupSim("sim_sched", schedStages)},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outDir holds everything a run writes: WAL state directories (on the
// checkout's filesystem, so fsync is real) and span files. run.sh builds
// into the same directory.
const outDir = ".bench_build"

// setupRuns is how many times a run sets its workload up; setup_s is the
// median and the last instance is the one measured.
const setupRuns = 3

// outcome is one run's result in the form the last output line carries.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// setUp sets w up once and reports how long that took.
func setUp(w workload, e *env, tr *tracer) (inst instance, seconds float64, err error) {
	c, err := timed(func() (err error) {
		inst, err = w.setup(e, tr)
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return inst, c.wallS, nil
}

// phaseOf sets w up once and measures it, returning the instance's result
// with its output checks folded into failed.
func phaseOf(w workload, e *env, seconds float64, tr *tracer) (res phaseResult, ps procStats, setupS float64, err error) {
	inst, setupS, err := setUp(w, e, tr)
	if err != nil {
		return res, ps, 0, err
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	reg := inst.registry()
	before, mark := snapshot(reg), markProc()
	wall, _ := timed(func() error {
		res = inst.measure(seconds)
		return nil
	})
	ps = mark.until(markProc(), wall.wallS)
	ps.reg, ps.before, ps.after = reg, before, snapshot(reg)
	checks, errs := inst.verify()
	res.others += int64(checks)
	res.failed += int64(len(errs))
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "%s: check failed: %v\n", w.name, e)
	}
	return res, ps, setupS, nil
}

// endToEnd computes the gated metrics of one untraced run: the rate as the
// median over the phase's windows, latency as the median over its samples,
// set-up time as the median over the run's set-ups.
func endToEnd(m metrics, res phaseResult, setups []float64) {
	rates, _ := windowRates(res.bounds)
	m.set("ops_s", median(rates), "1/s")
	m.set("op_p50_ms", median(res.lat)*1e3, "ms")
	m.set("setup_s", median(setups), "s")
}

// runUntraced is the end-to-end run: set up setupRuns times, measure the
// last instance with no decorator installed.
func runUntraced(w workload, e *env, seconds float64) (outcome, error) {
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		inst, took, err := setUp(w, e, nil)
		if err != nil {
			return outcome{}, err
		}
		if err := inst.close(); err != nil {
			return outcome{}, fmt.Errorf("close: %w", err)
		}
		setups = append(setups, took)
	}
	res, _, setupS, err := phaseOf(w, e, seconds, nil)
	if err != nil {
		return outcome{}, err
	}
	m := metrics{}
	endToEnd(m, res, append(setups, setupS))
	return outcome{Correct: res.failed == 0, Attempted: res.ops + res.others, Failed: res.failed, Metrics: m}, nil
}

// runTraced is the per-layer run: a traced phase of half the time between
// two untraced reference phases of a quarter each — before and after, so
// that drift over the run (caches warming, a neighbour's load) cancels in
// the overhead figure — then the direct-call probes. Spans go to traceDir
// as JSONL.
func runTraced(w workload, e *env, seconds float64, traceDir string) (outcome, error) {
	var refRates []float64
	o := outcome{Metrics: metrics{}}
	reference := func() error {
		ref, _, _, err := phaseOf(w, e, seconds/4, nil)
		rates, _ := windowRates(ref.bounds)
		refRates = append(refRates, rates...)
		o.Attempted += ref.ops + ref.others
		o.Failed += ref.failed
		return err
	}
	if err := reference(); err != nil {
		return o, err
	}
	tr := newTracer()
	res, ps, _, err := phaseOf(w, e, seconds/2, tr)
	if err != nil {
		return o, err
	}
	o.Attempted += res.ops + res.others
	o.Failed += res.failed
	if err := reference(); err != nil {
		return o, err
	}
	spans := tr.all()
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return o, err
	}
	if err := writeJSONL(filepath.Join(traceDir, w.name+".jsonl"), spans); err != nil {
		return o, err
	}
	layerMetrics(o.Metrics, res, spans, ps)
	rates, _ := windowRates(res.bounds)
	overhead := 0.0
	if r := median(refRates); r > 0 {
		overhead = 1 - median(rates)/r
	}
	o.Metrics.set("trace.overhead_share", overhead, "share")
	if err := runProbes(o.Metrics, e.stateRoot, e.seed); err != nil {
		return o, err
	}
	o.Correct = o.Failed == 0
	return o, nil
}

func printMetrics(w workload, o outcome) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-16s %-28s %14.6g %s\n", w.name, n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "workload to run (empty: all of them)")
		seed     = flag.Uint64("seed", 1, "seed of the generated op streams")
		seconds  = flag.Int("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		aa       = flag.Int("aa", 0, "run the untraced suite this many times and compare the runs (A/A)")
		update   = flag.Bool("update-expected", false, "rewrite expected/*.sha256 from one untimed pass and exit")
		benchDir = flag.String("dir", "bench", "this package's directory, relative to the working directory")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if *update {
		if *name != "" || *trace != 0 || *aa != 0 {
			return errors.New("-update-expected runs alone: it times nothing")
		}
		return updateExpected(*benchDir)
	}
	stateRoot := filepath.Join(outDir, "state")
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return err
	}
	e := &env{seed: *seed, conns: min(runtime.GOMAXPROCS(0), 4), stateRoot: stateRoot, benchDir: *benchDir}
	printManifest(e, *seconds)

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if *aa > 0 {
		return runAA(selected, e, *seconds, *aa)
	}
	ok := true
	var last outcome
	for _, w := range selected {
		var err error
		if *trace == 1 {
			last, err = runTraced(w, e, float64(*seconds), filepath.Join(outDir, "trace"))
		} else {
			last, err = runUntraced(w, e, float64(*seconds))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printMetrics(w, last)
		ok = ok && last.Correct
	}
	if len(selected) == 1 {
		// The contract's result line: one JSON object, last on stdout.
		b, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !ok {
		return errors.New("output checks failed")
	}
	return nil
}

// updateExpected rewrites the committed simulator digests from one pass
// each. It never runs together with a timed run, so a digest cannot be
// "fixed" in the same breath as it is measured.
func updateExpected(benchDir string) error {
	for _, s := range []struct {
		name   string
		stages func() []stage
	}{{"sim_flow", flowStages}, {"sim_sched", schedStages}} {
		w := &simLoad{name: s.name, stages: s.stages(), reg: telemetry.NewRegistry()}
		d, err := w.digest()
		if err != nil {
			return err
		}
		path := expectedPath(benchDir, s.name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(d+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s %s\n", s.name, d)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAA runs the untraced suite n times on the same code and seed and
// prints, per workload and end-to-end metric, every run's value, the
// largest relative difference from the first run and whether it stays
// within the bound BENCHMARK.json fixes for the metric.
func runAA(selected []workload, e *env, seconds, n int) error {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	results := make([]map[string]outcome, n)
	for i := range results {
		results[i] = map[string]outcome{}
		for _, w := range selected {
			o, err := runUntraced(w, e, float64(seconds))
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			results[i][w.name] = o
		}
	}
	pass := true
	fmt.Printf("| workload | metric | %s | max rel. diff | bound | |\n", strings.Join(runHeaders(n), " | "))
	fmt.Printf("|---|---|%s---|---|---|\n", strings.Repeat("---|", n))
	for _, w := range selected {
		for _, g := range c.EndToEnd {
			base := results[0][w.name].Metrics[g.Name].Value
			var cells []string
			worst := 0.0
			for i := range results {
				v := results[i][w.name].Metrics[g.Name].Value
				cells = append(cells, fmt.Sprintf("%.6g", v))
				if base != 0 {
					worst = max(worst, math.Abs(v-base)/base)
				}
			}
			verdict := "PASS"
			if worst > g.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("| %s | %s | %s | %.3f | %.2f | %s |\n", w.name, g.Name, strings.Join(cells, " | "), worst, g.Bound, verdict)
		}
		for i := range results {
			if !results[i][w.name].Correct {
				fmt.Printf("| %s | correct | run %d failed its output checks | | | FAIL |\n", w.name, i+1)
				pass = false
			}
		}
	}
	if !pass {
		return errors.New("A/A runs disagree beyond a bound")
	}
	return nil
}

func runHeaders(n int) []string {
	var h []string
	for i := 1; i <= n; i++ {
		h = append(h, fmt.Sprintf("run %d", i))
	}
	return h
}
