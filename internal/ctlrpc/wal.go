package ctlrpc

import (
	"encoding/json"

	"lightwave/internal/wal"
)

// MethodWALStatus reports the daemon's durable-state subsystem.
const MethodWALStatus = "wal-status"

// WALStatusResult snapshots a daemon's WAL. Enabled is false when the
// daemon runs without -state-dir; the store's fields then carry zero
// values.
type WALStatusResult struct {
	Enabled bool `json:"enabled"`
	wal.StoreStatus
}

// WALProvider supplies the wal-status method; *wal.Store implements it.
// Implementations must be safe for concurrent use.
type WALProvider interface {
	Status() wal.StoreStatus
}

// Journal is the server-side command journal seam: the per-fabric server
// hands every mutating command whose handler ran to it before the
// response is written, so the command is durable before the client sees
// the answer, and records the returned LSN as the one its fabric state
// covers. Implementations must be safe for concurrent use and must copy
// params if they retain them past the call.
type Journal interface {
	JournalCommand(method string, params json.RawMessage) (uint64, error)
}

// StoreWALProvider wraps a wal.Store for callers that name the wrapper;
// the store is a WALProvider on its own.
type StoreWALProvider struct{ *wal.Store }

func (s *Server) handleWALStatus(json.RawMessage) (any, error) {
	if s.wal == nil {
		return WALStatusResult{}, nil
	}
	return WALStatusResult{Enabled: true, StoreStatus: s.wal.Status()}, nil
}

// WALStatus reports the daemon's durable-state subsystem.
func (c *Client) WALStatus() (WALStatusResult, error) {
	var out WALStatusResult
	err := c.call(MethodWALStatus, nil, &out)
	return out, err
}
