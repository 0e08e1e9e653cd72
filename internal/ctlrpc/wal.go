package ctlrpc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"lightwave/internal/core"
	"lightwave/internal/wal"
	"lightwave/internal/walrec"
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
// hands every mutating command whose handler ran to it, encoded, before
// the response is written, so the command is durable before the client
// sees the answer, and records the returned LSN as the one its fabric
// state covers. Implementations must be safe for concurrent use.
type Journal interface {
	Append(payload []byte) (uint64, error)
}

// Export makes the per-fabric server lwfd's wal section: it returns the
// fabric's core.FabricState as JSON and the LSN of the last journaled
// command it holds, read together under the lock every journaled command
// keeps from execution through its append.
func (s *Server) Export() ([]byte, uint64, error) {
	s.mu.RLock()
	st, lsn := s.fabric.ExportState(), s.walLSN
	s.mu.RUnlock()
	b, err := json.Marshal(st)
	return b, lsn, err
}

// Load imports a snapshot's fabric state, which covers the log up to lsn,
// into the freshly built fabric during recovery, before the server starts
// serving.
func (s *Server) Load(state []byte, lsn uint64) error {
	var st core.FabricState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen.Add(1)
	s.walLSN = lsn
	return s.fabric.ImportState(st)
}

// Replay re-executes the command journaled at lsn during recovery, before
// the server starts serving; the fabric is deterministic, so a command
// that failed live fails again, with the same partial effect. It accepts
// only journal-marked methods, and wraps walrec.ErrMalformed around a
// record that does not decode.
func (s *Server) Replay(lsn uint64, payload []byte) error {
	name, params, err := decodeCommand(payload)
	if err != nil {
		return err
	}
	m := s.methods[name]
	if m == nil || !m.journal {
		return fmt.Errorf("ctlrpc: method %q is not replayable", name)
	}
	_, err = s.execute(m, params, lsn)
	return err
}

// encodeCommand serializes a journaled command in the log's binary record
// format (internal/walrec): the method, then the params as raw bytes.
func encodeCommand(method string, params json.RawMessage) []byte {
	b := make([]byte, 0, 2+len(method)+binary.MaxVarintLen64+len(params))
	b = append(b, walrec.V1)
	b = walrec.AppendString(b, method)
	b = binary.AppendUvarint(b, uint64(len(params)))
	return append(b, params...)
}

// decodeCommand parses a journaled command. Empty params decode as nil,
// as they did through JSON's omitempty; others alias p.
func decodeCommand(p []byte) (method string, params json.RawMessage, err error) {
	d := walrec.NewDecoder(p)
	method = d.Text()
	if raw := d.Bytes(); len(raw) > 0 {
		params = raw
	}
	if err = d.End(); err == nil && method == "" {
		err = fmt.Errorf("%w: empty method", walrec.ErrMalformed)
	}
	if err != nil {
		return "", nil, fmt.Errorf("ctlrpc: command record: %w", err)
	}
	return method, params, nil
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
