package ctlrpc

import (
	"encoding/json"

	"lightwave/internal/te"
)

// TEStatusResult reports the state of a daemon's topology-engineering
// loop. Enabled is false when the daemon runs no TE loop; the loop's
// fields then carry zero values.
type TEStatusResult struct {
	Enabled bool `json:"enabled"`
	te.Status
}

// TEStatusProvider supplies the te-status method; *te.Loop implements
// it. Implementations must be safe for concurrent use.
type TEStatusProvider interface {
	Status() te.Status
}

func (s *Server) handleTEStatus(json.RawMessage) (any, error) {
	if s.te == nil {
		return TEStatusResult{}, nil
	}
	return TEStatusResult{Enabled: true, Status: s.te.Status()}, nil
}
