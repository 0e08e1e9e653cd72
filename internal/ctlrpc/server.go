package ctlrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"lightwave/internal/core"
	"lightwave/internal/fleet"
	"lightwave/internal/telemetry"
)

// Server serves the control protocol. Its only dispatch structure is the
// method registry built at construction: NewServer registers the fabric
// methods, NewFleetServer the fleet methods and the watch stream, and
// everything else — the per-connection pipeline, lock classification, the
// generation-keyed result cache, inline read dispatch, journaling and the
// ctl_* metrics — is a property of a registry entry, applied the same way
// whichever constructor filled the table.
type Server struct {
	// mu guards state that is not concurrency-safe on its own (the
	// fabric): lockRead methods share it, lockWrite methods own it.
	mu      sync.RWMutex
	methods registry

	fabric *core.Fabric   // state of the fabric methods
	fleet  *fleet.Manager // state of the fleet methods
	// walLSN is the LSN of the last journaled command the fabric holds,
	// live or replayed; guarded by mu like the fabric it describes.
	walLSN uint64

	te      TEStatusProvider
	chaos   ChaosProvider
	sched   SchedProvider
	wal     WALProvider
	journal Journal
	metrics *ctlMetrics

	// gen counts lockWrite calls; cached entries key their encoded result
	// on it, so the read-mostly pollers that dominate control-plane load
	// skip both the handler and the marshal.
	gen atomic.Uint64

	// MaxRequestBytes caps one request line; 0 means
	// DefaultMaxRequestBytes. Set before Serve.
	MaxRequestBytes int
}

// lockClass says which side of Server.mu a method runs under.
type lockClass uint8

const (
	// lockNone: the handler's state is concurrency-safe on its own (the
	// fleet manager and every attached provider).
	lockNone lockClass = iota
	// lockRead: runs under RLock, concurrently with other reads. Only for
	// handlers that touch nothing but the server's own state and so cannot
	// block once the read lock is held: the connection reader runs them in
	// place of a worker handoff. A handler that calls out to an attached
	// provider is lockNone, because a slow provider must stall one worker,
	// never request decoding.
	lockRead
	// lockWrite: runs under Lock and bumps the generation counter.
	lockWrite
)

// handler executes one call against its already-locked state.
type handler func(params json.RawMessage) (any, error)

// method is one registry entry.
type method struct {
	name string
	lock lockClass
	// journal marks mutations that must be durable before their response:
	// once the handler ran, whatever its verdict, dispatch hands
	// name+params to the attached Journal, and Replay accepts the method
	// for recovery.
	journal bool
	// cached marks a lockRead handler that ignores its params: its encoded
	// result is reused until the next lockWrite call.
	cached bool
	cache  atomic.Pointer[cachedResult]

	fn handler
	// stream, when set, dedicates the connection to a server-push stream
	// in place of a unary answer.
	stream func(ctx context.Context, send func(Response) bool, id uint64)
}

// cachedResult is one generation's marshaled result.
type cachedResult struct {
	gen uint64
	raw json.RawMessage
}

// registry maps method names to entries. It is written only by the
// constructors and read-only from Serve on, so the wire parser and
// dispatch share it without locking.
type registry map[string]*method

func (r registry) add(m *method) { r[m.name] = m }

// call is one decoded request bound to its registry entry.
type call struct {
	id uint64
	// m is nil for a method nobody registered; name then carries the
	// token for the error message.
	m      *method
	name   string
	params json.RawMessage
}

// typed adapts a handler with typed params: the decode and its error text
// live here once instead of in every handler.
func typed[P, R any](fn func(P) (R, error)) handler {
	return func(params json.RawMessage) (any, error) {
		var p P
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad params: %w", err)
		}
		return fn(p)
	}
}

// registerProviders adds the methods backed by optional providers. Every
// provider is safe on its own and touches no fabric, so all of them are
// lockNone on either server.
func (s *Server) registerProviders() {
	s.methods.add(&method{name: MethodTEStatus, fn: s.handleTEStatus})
	s.methods.add(&method{name: MethodChaosStatus, fn: s.handleChaosStatus})
	s.methods.add(&method{name: MethodChaosInject, fn: s.handleChaosInject})
	s.methods.add(&method{name: MethodWALStatus, fn: s.handleWALStatus})
}

// SetTE attaches a topology-engineering status provider. Call before
// Serve; without one te-status reports TE as disabled.
func (s *Server) SetTE(p TEStatusProvider) { s.te = p }

// SetChaos attaches a fault-injection provider. Call before Serve;
// without one chaos-status reports chaos as disabled and chaos-inject is
// rejected.
func (s *Server) SetChaos(p ChaosProvider) { s.chaos = p }

// SetSched attaches a slice-scheduler provider. Call before Serve;
// without one sched-status reports the scheduler disabled and
// sched-submit is rejected.
func (s *Server) SetSched(p SchedProvider) { s.sched = p }

// SetWAL attaches a durable-state status provider. Call before Serve;
// without one wal-status reports the WAL as disabled.
func (s *Server) SetWAL(p WALProvider) { s.wal = p }

// SetJournal attaches a command journal: every journal-marked call the
// server executes is journaled before its response is written. Call
// before Serve (and after replaying recovered commands).
func (s *Server) SetJournal(j Journal) { s.journal = j }

// SetMetrics exposes ctl_requests_total / ctl_inflight /
// ctl_request_latency_seconds on the registry. Call before Serve.
func (s *Server) SetMetrics(reg *telemetry.Registry) { s.metrics = newCtlMetrics(reg) }

// Serve accepts connections until the listener closes or ctx is cancelled,
// and returns once every connection has drained.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	defer context.AfterFunc(ctx, func() { lis.Close() })()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(ctx, conn)
		}()
	}
}

// dispatch executes one call under the lock its registry entry names.
func (s *Server) dispatch(c call) Response {
	m := c.m
	if m == nil {
		return marshalResponse(c.id, nil, fmt.Errorf("unknown method %q", c.name))
	}
	if m.lock == lockRead {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.readLocked(c)
	}
	result, err := s.execute(m, c.params, 0)
	return marshalResponse(c.id, result, err)
}

// execute runs a lockNone or lockWrite handler and journals a
// journal-marked call. lsn is 0 for a live call; recovery replay passes the
// LSN the command was journaled at, and the call is not journaled again.
func (s *Server) execute(m *method, params json.RawMessage, lsn uint64) (any, error) {
	if m.lock == lockWrite {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.gen.Add(1) // any mutation invalidates the cached results
	}
	result, err := m.fn(params)
	if !m.journal {
		return result, err
	}
	if lsn == 0 && s.journal != nil {
		// Journal once the handler ran, before the response, refusals
		// included: a refused call may have changed the fabric (a cube
		// marked failed with no spare to swap in), and the fabric is
		// deterministic, so replay repeats the verdict and the effect. A
		// journal failure is surfaced as the call's error; the log then
		// refuses every further append until a restart recovers the
		// journaled prefix.
		var jerr error
		if lsn, jerr = s.journal.Append(encodeCommand(m.name, params)); jerr != nil {
			return nil, fmt.Errorf("journal: %w", jerr)
		}
	}
	s.walLSN = max(s.walLSN, lsn)
	return result, err
}

// readLocked runs one lockRead handler; s.mu must be read-held.
func (s *Server) readLocked(c call) Response {
	m := c.m
	if !m.cached {
		result, err := m.fn(c.params)
		return marshalResponse(c.id, result, err)
	}
	// Under the read lock no mutation can interleave, so a hit is exactly
	// the current state and a rebuild is safe to publish.
	gen := s.gen.Load()
	if hit := m.cache.Load(); hit != nil && hit.gen == gen {
		return Response{ID: c.id, Result: hit.raw}
	}
	result, err := m.fn(nil)
	resp := marshalResponse(c.id, result, err)
	if resp.Error == "" {
		m.cache.Store(&cachedResult{gen: gen, raw: resp.Result})
	}
	return resp
}

// marshalResponse packages a call's outcome as the wire response.
func marshalResponse(id uint64, result any, err error) Response {
	resp := Response{ID: id}
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	raw, err := json.Marshal(result)
	if err != nil {
		resp.Error = fmt.Sprintf("encoding result: %v", err)
		return resp
	}
	resp.Result = raw
	return resp
}
