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
// false when the daemon runs without the chaos flag; the remaining
// fields then carry zero values.
type ChaosStatusResult struct {
	Enabled       bool   `json:"enabled"`
	InjectedTotal int    `json:"injectedTotal"`
	ActiveFaults  int    `json:"activeFaults"`
	TrunksDown    int    `json:"trunksDown"`
	DownSwitches  int    `json:"downSwitches"`
	LastFault     string `json:"lastFault,omitempty"`
}

// ChaosProvider supplies the chaos methods; daemons adapt their injector
// to it. Implementations must be safe for concurrent use.
type ChaosProvider interface {
	ChaosInject(ChaosInjectParams) (ChaosInjectResult, error)
	ChaosStatus() ChaosStatusResult
}

// InjectorProvider adapts a chaos.Injector to ChaosProvider: events are
// validated against a one-event scenario, applied live, and bounded
// transients lift on a wall-clock timer.
type InjectorProvider struct {
	In *chaos.Injector
}

// ChaosInject implements ChaosProvider.
func (p InjectorProvider) ChaosInject(params ChaosInjectParams) (ChaosInjectResult, error) {
	ev := params.Event()
	probe := chaos.Scenario{Name: "rpc", HorizonSeconds: ev.DurationSeconds + 1, Events: []chaos.Event{ev}}
	if err := probe.Validate(); err != nil {
		return ChaosInjectResult{}, err
	}
	if err := p.In.ApplyLive(ev); err != nil {
		return ChaosInjectResult{}, err
	}
	return ChaosInjectResult{Applied: ev.String()}, nil
}

// ChaosStatus implements ChaosProvider.
func (p InjectorProvider) ChaosStatus() ChaosStatusResult {
	st := p.In.Status()
	return ChaosStatusResult{
		Enabled:       true,
		InjectedTotal: st.InjectedTotal,
		ActiveFaults:  st.ActiveFaults,
		TrunksDown:    st.TrunksDown,
		DownSwitches:  st.DownSwitches,
		LastFault:     st.LastFault,
	}
}

func (s *Server) handleChaosStatus(json.RawMessage) (any, error) {
	if s.chaos == nil {
		return ChaosStatusResult{}, nil
	}
	return s.chaos.ChaosStatus(), nil
}

// handleChaosInject rejects before it decodes: a daemon without the
// provider answers ErrChaosDisabled whatever the params look like.
func (s *Server) handleChaosInject(params json.RawMessage) (any, error) {
	if s.chaos == nil {
		return nil, ErrChaosDisabled
	}
	return typed(s.chaos.ChaosInject)(params)
}
