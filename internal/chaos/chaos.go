// Package chaos is the deterministic fault-injection and
// resilience-evaluation subsystem. The paper's availability story (§3.4,
// §4.3) is about *operational* failure handling — OCS outages, circuit
// flaps, transceiver BER excursions, pod losses and maintenance drains
// that the control plane must absorb without fabric-wide outages. This
// package turns those fault classes into typed, virtual-time scenarios
// and replays them against the real control loops:
//
//   - a Scenario is a schedule of fault events, composable by hand,
//     from named templates, or from a random generator driven by
//     sim.Substream and the failure-rate table in internal/avail;
//   - an Injector applies each fault through the production seams —
//     fleet.Manager backend errors, Poke and DrainOCS/UndrainOCS, the
//     te collector's observed-traffic input, telemetry.Detector BER
//     feeds, and dcn trunk-capacity mutation — never by reaching around
//     the control plane;
//   - an Evaluator replays a scenario end-to-end against a live fleet
//     reconciler and te loop, measuring MTTR, convergence-event counts,
//     quarantine correctness and goodput-under-failure via the flow
//     simulator. Flow simulations fan out on internal/par with one
//     substream per epoch, so a report is bit-identical at any worker
//     count.
//
// Determinism contract: everything measured in a Report is a pure
// function of the (scenario, config, seed) triple. Fleet reconciliation
// runs on wall-clock goroutines, so the evaluator applies each
// fleet-touching fault and waits for its deterministic settle signature
// (exactly QuarantineAfter reconcile errors before a quarantine, a
// recovered edge after an undrain, one convergence per drain toggle)
// before advancing virtual time; wall-clock durations never enter the
// report.
package chaos

import (
	"errors"
	"sync/atomic"

	"lightwave/internal/telemetry"
)

// Errors returned by the package.
var (
	ErrScenario = errors.New("chaos: invalid scenario")
	ErrConfig   = errors.New("chaos: invalid configuration")
	ErrTarget   = errors.New("chaos: fault targets a seam the injector was not given")
)

var registry atomic.Pointer[telemetry.Registry]

func init() {
	registry.Store(telemetry.NewRegistry())
}

// SetRegistry directs the package's chaos_* metrics to r (nil resets to
// a private registry). Daemons call this at startup so injected-fault
// counters appear on their /metrics endpoint.
func SetRegistry(r *telemetry.Registry) {
	if r == nil {
		r = telemetry.NewRegistry()
	}
	registry.Store(r)
}

// Registry returns the registry chaos_* metrics are recorded in.
func Registry() *telemetry.Registry {
	return registry.Load()
}
