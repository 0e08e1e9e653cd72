package ctlrpc

import (
	"encoding/json"

	"lightwave/internal/te"
)

// LoopTEProvider adapts a te.Loop to the TEStatusProvider interface, so
// lwfleetd serves te-status with one line of wiring.
type LoopTEProvider struct {
	L *te.Loop
}

// TEStatus implements TEStatusProvider.
func (p LoopTEProvider) TEStatus() TEStatusResult {
	s := p.L.Status()
	return TEStatusResult{
		Enabled:                   true,
		Blocks:                    s.Blocks,
		Uplinks:                   s.Uplinks,
		Epoch:                     s.Epoch,
		Reconfigs:                 s.Reconfigs,
		SkippedReconfigs:          s.SkippedReconfigs,
		Stages:                    s.Stages,
		TrunksMoved:               s.TrunksMoved,
		LastGain:                  s.LastGain,
		LastPredictionError:       s.LastPredictionError,
		MinResidualFraction:       s.MinResidualFraction,
		DrainedCapacityBpsSeconds: s.DrainedCapacityBpsSeconds,
		LastReconfigEpoch:         s.LastReconfigEpoch,
		LastReason:                s.LastReason,
		CurrentTrunks:             s.CurrentTrunks,
	}
}

func (s *Server) handleTEStatus(json.RawMessage) (any, error) {
	if s.te == nil {
		return TEStatusResult{}, nil
	}
	return s.te.TEStatus(), nil
}
