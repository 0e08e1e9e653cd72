package main

import (
	"runtime"
	"sort"
	"strings"

	"lightwave/internal/telemetry"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// regCounters are the registry counters the traced run reads, before and
// after the timed phase, so every count and ratio covers that phase only.
var regCounters = []string{
	"ctl_requests_total",
	"fleet.retries_total", "fleet.backoffs_total", "fleet.watch_dropped_total",
	"fleet.pod.pod0.reconciles_total", "fleet.pod.pod1.reconciles_total",
	"fleet.pod.pod2.reconciles_total", "fleet.pod.pod3.reconciles_total",
	"wal_appends_total", "wal_append_bytes_total", "wal_fsyncs_total",
	"fabric.slices_composed", "ocs.reconfigurations",
	"dcn_flowsim_events_total", "dcn_flowsim_recompute_rounds_total",
	"dcn_flowsim_pool_hits_total", "dcn_flowsim_pool_misses_total",
	"te_reconfigs_total", "te_stages_total", "chaos_injected_total",
	"sched_started_total", "sched_swaps_total",
}

// parCounters lists the par fan-out counters ending in suffix. They are
// discovered from the registry because every caller of par names its own
// sweep.
func parCounters(reg *telemetry.Registry, suffix string) []string {
	var out []string
	for _, n := range reg.Names() {
		if strings.HasPrefix(n, "par_") && strings.HasSuffix(n, suffix) {
			out = append(out, n)
		}
	}
	return out
}

// snapshot reads the listed counters plus the par counters.
func snapshot(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, n := range regCounters {
		out[n] = counterOf(reg, n)
	}
	for _, suffix := range []string{"_calls_total", "_busy_micros_total"} {
		for _, n := range parCounters(reg, suffix) {
			out["par"+suffix] += counterOf(reg, n)
		}
	}
	return out
}

// procStats is the process-level cost of a timed phase.
type procStats struct {
	wallS, cpuS  float64
	allocBytes   uint64
	gcCycles     uint32
	heapSysBytes uint64
	nproc        int
	// reg is the registry the phase's layers reported into; before and
	// after are its counters at the phase's edges.
	reg           *telemetry.Registry
	before, after map[string]float64
}

type procMark struct {
	cpuS float64
	mem  runtime.MemStats
}

func markProc() procMark {
	var p procMark
	runtime.ReadMemStats(&p.mem)
	p.cpuS = cpuSeconds()
	return p
}

func (a procMark) until(b procMark, wallS float64) procStats {
	return procStats{
		wallS:        wallS,
		cpuS:         b.cpuS - a.cpuS,
		allocBytes:   b.mem.TotalAlloc - a.mem.TotalAlloc,
		gcCycles:     b.mem.NumGC - a.mem.NumGC,
		heapSysBytes: b.mem.HeapSys,
		nproc:        runtime.GOMAXPROCS(0),
	}
}

// durationsOf returns, per span name, the durations in seconds.
func durationsOf(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e9)
	}
	return out
}

// reconcileLags derives, per traced operation that reached the backend,
// how long its intent waited in the reconcile queue (journaled → first
// backend call, both stamped inside the process) and how long the result
// took to reach the caller (backend returned → ready event received).
func reconcileLags(spans []span) (queueWait, eventLag []float64) {
	type opTimes struct{ journaled, ensureStart, ensureEnd, ready int64 }
	ops := map[uint64]*opTimes{}
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		o := ops[s.Op]
		if o == nil {
			o = &opTimes{}
			ops[s.Op] = o
		}
		switch s.Name {
		case "wal.journal":
			if o.journaled == 0 || s.End < o.journaled {
				o.journaled = s.End
			}
		case "core.ensure":
			if o.ensureStart == 0 || s.Start < o.ensureStart {
				o.ensureStart = s.Start
			}
			o.ensureEnd = max(o.ensureEnd, s.End)
		case "client.ready":
			o.ready = s.End
		}
	}
	ids := make([]uint64, 0, len(ops))
	for id := range ops {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o := ops[id]
		if o.journaled == 0 || o.ensureStart == 0 || o.ready == 0 {
			continue
		}
		queueWait = append(queueWait, float64(max(o.ensureStart-o.journaled, 0))/1e9)
		eventLag = append(eventLag, float64(max(o.ready-o.ensureEnd, 0))/1e9)
	}
	return queueWait, eventLag
}

// layerMetrics fills m with every per-layer metric that comes from the
// traced phase itself: spans recorded at the seams, registry counts over
// the phase, and the generator's and the process's own figures. Metrics of
// layers the workload never enters read 0.
func layerMetrics(m metrics, res phaseResult, spans []span, ps procStats) {
	reg := ps.reg
	d := durationsOf(spans)
	delta := func(name string) float64 { return ps.after[name] - ps.before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	med := func(name string, scale float64) float64 { return median(d[name]) * scale }

	// client: the generator's view.
	tail := tailPercentile(len(res.lat))
	m.set("client.samples", float64(len(res.lat)), "count")
	m.set("client.op_tail_pct", tail, "%")
	m.set("client.op_tail_ms", percentile(res.lat, tail)*1e3, "ms")
	m.set("client.ack_p50_us", median(res.ack)*1e6, "us")
	m.set("client.ack_tail_us", percentile(res.ack, tailPercentile(len(res.ack)))*1e6, "us")
	m.set("client.mutator_p50_us", res.extra["client.mutator_p50_us"], "us")
	m.set("client.late_share", res.extra["client.late_share"], "share")
	m.set("client.failed_share", ratio(float64(res.failed), float64(res.ops+res.others)), "share")

	// ctlrpc: the ack minus the seam spans inside it.
	self := selfTimes(spans)
	var ackSelf []float64
	for _, s := range spans {
		if s.Name == "client.ack" {
			ackSelf = append(ackSelf, float64(self[s.ID])/1e9)
		}
	}
	m.set("ctlrpc.ack_self_us", median(ackSelf)*1e6, "us")
	m.set("ctlrpc.requests", delta("ctl_requests_total"), "count")
	m.set("ctlrpc.id_mismatches", res.extra["ctlrpc.id_mismatches"], "count")
	readAlloc := 0.0
	if len(d["client.read"]) > 0 {
		readAlloc = ratio(float64(ps.allocBytes), float64(res.ops))
	}
	m.set("ctlrpc.read_alloc_b_per_op", readAlloc, "B/op")

	// fleet: reconcile queue, passes and the waste ratio.
	queueWait, eventLag := reconcileLags(spans)
	reconciles := 0.0
	var pass telemetry.DistSnapshot
	for p := 0; p < numPods; p++ {
		reconciles += delta("fleet.pod." + podName(p) + ".reconciles_total")
		s := reg.Distribution("fleet.pod." + podName(p) + ".reconcile_seconds").Snapshot()
		if pass.Counts == nil {
			pass = s
			continue
		}
		pass.N += s.N
		pass.Min, pass.Max = min(pass.Min, s.Min), max(pass.Max, s.Max)
		for i := range s.Counts {
			if i < len(pass.Counts) {
				pass.Counts[i] += s.Counts[i]
			}
		}
	}
	m.set("fleet.queue_wait_ms", median(queueWait)*1e3, "ms")
	m.set("fleet.event_lag_ms", median(eventLag)*1e3, "ms")
	m.set("fleet.reconciles", reconciles, "count")
	m.set("fleet.passes_per_intent", ratio(reconciles, float64(res.ops)), "1/op")
	m.set("fleet.retries", delta("fleet.retries_total"), "count")
	m.set("fleet.backoffs", delta("fleet.backoffs_total"), "count")
	m.set("fleet.watch_dropped", delta("fleet.watch_dropped_total"), "count")
	m.set("fleet.reconcile_pass_p50_ms", pass.Quantile(0.5)*1e3, "ms")
	m.set("fleet.recover_ms", med("fleet.recover", 1e3), "ms")
	m.set("fleet.settle_ms", med("fleet.settle", 1e3), "ms")

	// wal: the journal seam and what group commit did behind it.
	appends := delta("wal_appends_total")
	m.set("wal.journal_p50_us", med("wal.journal", 1e6), "us")
	m.set("wal.fsyncs_per_append", ratio(delta("wal_fsyncs_total"), appends), "1/op")
	m.set("wal.batch_records_p50", reg.Distribution("wal_batch_records").Snapshot().Quantile(0.5), "count")
	m.set("wal.bytes_per_record", ratio(delta("wal_append_bytes_total"), appends), "B/op")
	m.set("wal.segments", reg.Gauge("wal_segments").Value(), "count")
	m.set("wal.open_log_ms", med("wal.open_log", 1e3), "ms")
	m.set("wal.open_snap_ms", med("wal.open_snap", 1e3), "ms")
	m.set("wal.recover_log_ms", med("client.recover_log", 1e3), "ms")
	m.set("wal.recover_snap_ms", med("client.recover_snap", 1e3), "ms")

	// core and ocs: the backend calls and the hardware programming.
	composed := delta("fabric.slices_composed")
	m.set("core.ensure_p50_us", med("core.ensure", 1e6), "us")
	m.set("core.destroy_p50_us", med("core.destroy", 1e6), "us")
	m.set("core.slices_p50_us", med("core.slices", 1e6), "us")
	m.set("core.new_pods_ms", med("core.new_pods", 1e3), "ms")
	m.set("core.slices_composed", composed, "count")
	m.set("ocs.reconfigurations", delta("ocs.reconfigurations"), "count")
	m.set("ocs.circuits_per_compose", ratio(delta("ocs.reconfigurations"), composed), "1/op")

	// The simulators: stage times, and counts per pass — the inputs are
	// fixed, so these repeat exactly from run to run.
	perPass := func(name string) float64 { return ratio(delta(name), float64(res.ops)) }
	events := delta("dcn_flowsim_events_total")
	pool := delta("dcn_flowsim_pool_hits_total") + delta("dcn_flowsim_pool_misses_total")
	m.set("dcn.compare_s", med("dcn.compare", 1), "s")
	m.set("dcn.flowsim_events", perPass("dcn_flowsim_events_total"), "count")
	m.set("dcn.recompute_rounds", perPass("dcn_flowsim_recompute_rounds_total"), "count")
	m.set("dcn.pool_miss_share", ratio(delta("dcn_flowsim_pool_misses_total"), pool), "share")
	m.set("dcn.ns_per_event", ratio(sum(d["dcn.compare"])+sum(d["te.evaluate"])+sum(d["chaos.evaluate"]), events)*1e9, "ns")
	m.set("te.evaluate_s", med("te.evaluate", 1), "s")
	m.set("te.reconfigs", perPass("te_reconfigs_total"), "count")
	m.set("te.stages", perPass("te_stages_total"), "count")
	m.set("chaos.evaluate_s", med("chaos.evaluate", 1), "s")
	m.set("chaos.injected", perPass("chaos_injected_total"), "count")
	m.set("par.calls", perPass("par_calls_total"), "count")
	m.set("par.busy_s", perPass("par_busy_micros_total")/1e6, "s")
	m.set("sched.simulate_s", med("sched.simulate", 1), "s")
	m.set("sched.place_mean_us", reg.Distribution("sched_place_seconds").Snapshot().Mean*1e6, "us")
	m.set("sched.started", perPass("sched_started_total"), "count")
	m.set("sched.swaps", perPass("sched_swaps_total"), "count")
	m.set("superpod.evaluate_s", med("superpod.evaluate", 1), "s")

	// proc: read these before reading any throughput change as a cost.
	_, cpuPerOp := windowRates(res.bounds)
	m.set("proc.cpu_s", ps.cpuS, "s")
	m.set("proc.cpu_ms_per_op", median(cpuPerOp)*1e3, "ms")
	m.set("proc.cpu_busy_share", ratio(ps.cpuS, ps.wallS*float64(ps.nproc)), "share")
	m.set("proc.total_alloc_mb", float64(ps.allocBytes)/(1<<20), "MiB")
	m.set("proc.gc_cycles", float64(ps.gcCycles), "count")
	m.set("proc.heap_sys_mb", float64(ps.heapSysBytes)/(1<<20), "MiB")
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
