// Package te closes the spine-free DCN control loop of §2.1/§4 online:
// measure inter-block traffic, predict demand, re-engineer the logical
// topology, and apply it through staged OCS reconfiguration. It is the
// "traffic-aware topology engineering" loop that runs continuously in
// production, built from four pieces:
//
//	Collector  — streams per-epoch inter-block byte counts into a
//	             traffic matrix (fed by synthetic diurnal/bursty
//	             generators in trace.go, deterministic via sim.Substream)
//	Predictor  — per-pair EWMA baselines (the telemetry/anomaly
//	             machinery) hedged with a decaying peak-hold, so bursts
//	             raise the prediction without teaching the baseline that
//	             bursts are normal
//	Planner    — reconfigures only when the predicted throughput gain
//	             (dcn.AchievedThroughput on the predicted matrix) clears
//	             a hysteresis threshold, and emits a staged
//	             drain -> OCS reprogram -> undrain plan whose per-stage
//	             residual capacity never drops below a configured floor,
//	             costed with cost.OCSTechnology.ReconfigTime
//	Applier    — realizes each stage on hardware: dcn.Fabric.Program
//	             coordinated through the fleet.Manager reconcile path
//	             (OCS maintenance drains + events)
//
// Everything is deterministic at any worker count: randomness flows only
// through sim.Substream and fan-out only through internal/par, so a fixed
// seed replays bit-identically under `go test -cpu 1,4,8`.
//
// The loop reports te_* counters (epochs, reconfigs, staged drains,
// predicted-vs-actual error, drained capacity-seconds) in a
// telemetry.Registry; lwfleetd swaps in its own registry with SetRegistry
// so the counters appear on /metrics.
package te

import (
	"errors"
	"sync/atomic"

	"lightwave/internal/telemetry"
)

// ErrConfig is returned for degenerate loop, trace, or planner
// configurations.
var ErrConfig = errors.New("te: invalid configuration")

// ErrMatrix is returned when an observed matrix does not match the loop's
// block count or carries non-finite entries.
var ErrMatrix = errors.New("te: invalid traffic matrix")

// registry holds the subsystem's metrics; swap it with SetRegistry to
// surface the counters on a daemon's /metrics endpoint.
var registry atomic.Pointer[telemetry.Registry]

func init() {
	registry.Store(telemetry.NewRegistry())
}

// SetRegistry redirects the subsystem's telemetry to r (nil restores a
// fresh private registry). Daemons call this once at startup so te_*
// counters appear alongside their other metrics.
func SetRegistry(r *telemetry.Registry) {
	if r == nil {
		r = telemetry.NewRegistry()
	}
	registry.Store(r)
}

// Registry returns the registry currently receiving the subsystem's
// metrics.
func Registry() *telemetry.Registry {
	return registry.Load()
}
