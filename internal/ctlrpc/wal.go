package ctlrpc

import (
	"encoding/json"

	"lightwave/internal/wal"
)

// MethodWALStatus reports the daemon's durable-state subsystem.
const MethodWALStatus = "wal-status"

// WALStatusResult snapshots a daemon's WAL. Enabled is false when the
// daemon runs without -state-dir; the remaining fields then carry zero
// values.
type WALStatusResult struct {
	Enabled         bool   `json:"enabled"`
	Dir             string `json:"dir,omitempty"`
	LastLSN         uint64 `json:"lastLSN"`
	SnapshotLSN     uint64 `json:"snapshotLSN"`
	Segments        int    `json:"segments"`
	TotalBytes      int64  `json:"totalBytes"`
	Appends         int64  `json:"appends"`
	AppendBytes     int64  `json:"appendBytes"`
	Fsyncs          int64  `json:"fsyncs"`
	Snapshots       int64  `json:"snapshots"`
	Compactions     int64  `json:"compactions"`
	ReplayRecords   int    `json:"replayRecords"`
	ReplayErrors    int    `json:"replayErrors"`
	TruncatedBytes  int64  `json:"truncatedBytes"`
	DroppedSegments int    `json:"droppedSegments"`
	FleetPods       int    `json:"fleetPods"`
	FleetSlices     int    `json:"fleetSlices"`
	FleetDigest     string `json:"fleetDigest,omitempty"`
	// Broken is the log's sticky commit failure: set, the daemon refuses
	// every further durable mutation and checkpoint until restarted.
	Broken string `json:"broken,omitempty"`
}

// WALProvider supplies the wal-status method. Implementations must be
// safe for concurrent use.
type WALProvider interface {
	WALStatus() WALStatusResult
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

// StoreWALProvider adapts a wal.Store to WALProvider.
type StoreWALProvider struct {
	Store *wal.Store
}

// WALStatus implements WALProvider.
func (p StoreWALProvider) WALStatus() WALStatusResult {
	st := p.Store.Status()
	return WALStatusResult{
		Enabled:         true,
		Dir:             st.Log.Dir,
		LastLSN:         st.Log.LastLSN,
		SnapshotLSN:     st.Log.SnapshotLSN,
		Segments:        st.Log.Segments,
		TotalBytes:      st.Log.TotalBytes,
		Appends:         st.Log.Appends,
		AppendBytes:     st.Log.AppendBytes,
		Fsyncs:          st.Log.Fsyncs,
		Snapshots:       st.Log.Snapshots,
		Compactions:     st.Log.Compactions,
		ReplayRecords:   st.ReplayRecords,
		ReplayErrors:    st.ReplayErrors,
		TruncatedBytes:  st.TruncatedBytes,
		DroppedSegments: st.DroppedSegments,
		FleetPods:       st.FleetPods,
		FleetSlices:     st.FleetSlices,
		FleetDigest:     st.FleetDigest,
		Broken:          st.Log.Broken,
	}
}

func (s *Server) handleWALStatus(json.RawMessage) (any, error) {
	if s.wal == nil {
		return WALStatusResult{}, nil
	}
	return s.wal.WALStatus(), nil
}

// WALStatus reports the daemon's durable-state subsystem.
func (c *Client) WALStatus() (WALStatusResult, error) {
	var out WALStatusResult
	err := c.call(MethodWALStatus, nil, &out)
	return out, err
}
