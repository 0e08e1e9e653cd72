package ctlrpc

import (
	"encoding/json"
	"errors"

	"lightwave/internal/chaos"
)

// Chaos method names. Both daemons answer them, but only lwfleetd started
// with -chaos injects — fault injection is a sharp tool, so any other
// daemon rejects chaos-inject outright.
const (
	MethodChaosInject = "chaos-inject"
	MethodChaosStatus = "chaos-status"
)

// ErrChaosDisabled is returned for chaos-inject on a daemon that was not
// started with fault injection enabled.
var ErrChaosDisabled = errors.New("chaos injection disabled (start the daemon with -chaos)")

// ChaosInjectParams is one fault event. Kind takes the internal/chaos
// kind strings (pod-loss, pod-restore, ocs-outage, ocs-restore,
// circuit-flap, ber-degrade, stuck-drain, slow-drain).
type ChaosInjectParams struct {
	Kind            string  `json:"kind"`
	Pod             string  `json:"pod,omitempty"`
	OCS             int     `json:"ocs,omitempty"`
	TrunkA          int     `json:"trunkA,omitempty"`
	TrunkB          int     `json:"trunkB,omitempty"`
	BER             float64 `json:"ber,omitempty"`
	DurationSeconds float64 `json:"durationSeconds,omitempty"`
}

// Event converts the wire form to a chaos.Event (onset at time zero:
// live injection is immediate; durations schedule the lift).
func (p ChaosInjectParams) Event() chaos.Event {
	return chaos.Event{
		Kind:            chaos.Kind(p.Kind),
		Pod:             p.Pod,
		OCS:             p.OCS,
		Trunk:           [2]int{p.TrunkA, p.TrunkB},
		BER:             p.BER,
		DurationSeconds: p.DurationSeconds,
	}
}

// ChaosInjectResult acknowledges an injection.
type ChaosInjectResult struct {
	Applied string `json:"applied"`
}

// ChaosStatusResult reports a daemon's fault-injection state. Enabled is
// false when the daemon runs without the chaos flag; the injector's fields
// then carry zero values.
type ChaosStatusResult struct {
	Enabled bool `json:"enabled"`
	chaos.InjectorStatus
}

// ChaosProvider supplies the chaos methods; *chaos.Injector implements
// it. Implementations must be safe for concurrent use.
type ChaosProvider interface {
	// ApplyLive refuses an invalid event, else injects it now and returns
	// the event as applied.
	ApplyLive(chaos.Event) (string, error)
	Status() chaos.InjectorStatus
}

func (s *Server) handleChaosStatus(json.RawMessage) (any, error) {
	if s.chaos == nil {
		return ChaosStatusResult{}, nil
	}
	return ChaosStatusResult{Enabled: true, InjectorStatus: s.chaos.Status()}, nil
}

// handleChaosInject rejects before it decodes: a daemon without the
// provider answers ErrChaosDisabled whatever the params look like.
func (s *Server) handleChaosInject(params json.RawMessage) (any, error) {
	if s.chaos == nil {
		return nil, ErrChaosDisabled
	}
	return typed(func(p ChaosInjectParams) (any, error) {
		applied, err := s.chaos.ApplyLive(p.Event())
		if err != nil {
			return nil, err
		}
		return ChaosInjectResult{Applied: applied}, nil
	})(params)
}
