package ctlrpc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client errors.
var (
	// ErrClientBroken marks a client whose connection died: a transport
	// error (write failure, read failure, undecodable response, close)
	// leaves the stream unusable, so every later call fails fast instead
	// of hanging on a dead wire. Reconnect to recover.
	ErrClientBroken = errors.New("ctlrpc: client broken by earlier transport error")
	// ErrClientStreaming marks a client whose connection was dedicated to
	// a watch event stream; open a second client for unary calls.
	ErrClientStreaming = errors.New("ctlrpc: connection dedicated to a watch stream")

	// errClientClosed is the sticky error recorded by Close.
	errClientClosed = errors.New("client closed")
)

// Client is a fully pipelined control-protocol client, safe for concurrent
// use: N goroutines sharing one Client get N requests in flight on the one
// connection. The connection's batch writer coalesces queued request lines
// into batched writes; a reader goroutine demultiplexes responses by request
// ID to per-call channels, so calls complete in whatever order the server
// answers.
//
// Context semantics: a call abandoned on deadline or cancellation simply
// forgets its ID — the late response is dropped when it arrives — and the
// client stays healthy for every other call. Only genuine transport errors
// (write/read/decode failures, Close) mark the client broken.
type Client struct {
	conn net.Conn
	w    *batchWriter

	mu        sync.Mutex
	nextID    uint64                 // IDs are issued in order: 1..nextID
	pending   map[uint64]pendingCall // in-flight calls and the watch, by ID
	broken    error                  // first transport error; sticky
	streaming bool                   // connection handed over to a Watch

	dead chan struct{} // closed on the first transport error

	unknown atomic.Int64 // responses dropped for an unknown (never-issued) ID
}

// pendingCall parks one in-flight call. discard marks callers that will
// not read the result payload, so the reader skips detaching it from the
// read buffer. stream marks a watch: it stays registered for every event,
// and its receiver watches Client.dead instead of a channel close.
type pendingCall struct {
	ch      chan Response
	discard bool
	stream  bool
}

// Dial connects to a fabric or fleet daemon.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ctlrpc: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection and starts its reader and
// writer; both end when the client breaks or closes.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]pendingCall),
		dead:    make(chan struct{}),
	}
	c.w = newBatchWriter(conn, func(err error) { c.fail(fmt.Errorf("write: %v", err)) })
	go c.readLoop()
	return c
}

// Close closes the connection; in-flight calls fail with ErrClientBroken.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(errClientClosed)
	return err
}

// fail records the first transport error, wakes everything waiting on the
// client, and fails all pending calls. Idempotent.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken != nil {
		c.mu.Unlock()
		return
	}
	c.broken = err
	pending := c.pending
	c.pending = make(map[uint64]pendingCall)
	close(c.dead)
	c.mu.Unlock()
	c.w.close()
	for _, pc := range pending {
		if !pc.stream { // the reader may still be sending on a watch's channel
			close(pc.ch)
		}
	}
}

func (c *Client) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Errorf("%w: %v", ErrClientBroken, c.broken)
}

// readLoop demultiplexes responses to the pending call (or watch stream)
// registered under their ID. An unmatched ID that was issued answers a
// call abandoned on its context and is dropped silently; one that was
// never issued is counted, logged and dropped — a stray ID must not
// desynchronize every other call on the stream.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64*1024)
	// Hoisted out of the loop: &resp escapes into parseResponse, so an
	// in-loop declaration heap-allocates per response. Each channel send
	// copies the value, so reuse is safe.
	var resp Response
	for {
		// Responses get the servers' request cap, so a peer that never
		// sends a newline cannot make the client buffer without bound.
		line, tooLong, err := readLimitedLine(br, DefaultMaxRequestBytes)
		if tooLong {
			c.fail(fmt.Errorf("read: response line exceeds %d bytes", DefaultMaxRequestBytes))
			return
		}
		if err != nil {
			c.fail(fmt.Errorf("read: %v", err))
			return
		}
		if err := parseResponse(line, &resp); err != nil {
			c.fail(fmt.Errorf("decoding response: %v", err))
			return
		}
		c.mu.Lock()
		pc, ok := c.pending[resp.ID]
		if ok && !pc.stream {
			delete(c.pending, resp.ID)
		}
		issued := resp.ID != 0 && resp.ID <= c.nextID
		c.mu.Unlock()
		if !ok {
			if !issued {
				c.unknown.Add(1)
			}
			continue
		}
		if pc.discard {
			// The caller will not decode the payload; dropping it here
			// saves the detach copy on the hot fire-and-check path.
			resp.Result = nil
		} else if len(resp.Result) != 0 {
			// Detach the buffer-aliasing Result before it crosses to a
			// receiver that outlives the next read.
			resp.Result = append(json.RawMessage(nil), resp.Result...)
		}
		if !pc.stream {
			pc.ch <- resp // buffered; never blocks
			continue
		}
		select {
		case pc.ch <- resp:
		case <-c.dead:
			return
		}
	}
}

// UnknownResponses reports how many responses were dropped because their
// ID matched no issued request — the request-ID mismatch count; it stays
// 0 on a healthy stream.
func (c *Client) UnknownResponses() int64 { return c.unknown.Load() }

// respChPool recycles per-call response channels; a channel is pooled
// only after its single buffered send was consumed, so pooled channels are
// always empty and open.
var respChPool = sync.Pool{New: func() any { return make(chan Response, 1) }}

// register assigns the next request ID and parks pc for its responses.
// A watch dedicates the connection: once the server upgrades, it stops
// reading requests, so unary calls are refused from here on.
func (c *Client) register(pc pendingCall) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return 0, fmt.Errorf("%w: %v", ErrClientBroken, c.broken)
	}
	if c.streaming {
		return 0, ErrClientStreaming
	}
	c.nextID++
	c.pending[c.nextID] = pc
	c.streaming = pc.stream
	return c.nextID, nil
}

// abandon forgets an in-flight call whose context expired; the eventual
// response is dropped silently.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// call performs one request/response exchange with no deadline.
func (c *Client) call(method string, params, result any) error {
	return c.CallContext(context.Background(), method, params, result)
}

// CallContext performs one request/response exchange, honouring the
// context's deadline and cancellation — a hung server no longer blocks the
// caller forever. Abandoning a call on deadline does NOT break the client:
// the response is matched by ID when it eventually arrives and dropped, so
// concurrent calls sharing the client are unaffected. Transport errors
// still mark the client broken (ErrClientBroken) and fail every later
// call fast; reconnect to recover.
func (c *Client) CallContext(ctx context.Context, method string, params, result any) error {
	if err := ctx.Err(); err != nil {
		return err // nothing hit the wire; client stays healthy
	}
	ch := respChPool.Get().(chan Response)
	id, err := c.register(pendingCall{ch: ch, discard: result == nil})
	if err != nil {
		return err
	}
	req := Request{ID: id, Method: method}
	if params != nil {
		raw, merr := json.Marshal(params)
		if merr != nil {
			c.abandon(id)
			return fmt.Errorf("ctlrpc: encoding params: %w", merr)
		}
		req.Params = raw
	}
	c.w.sendRequest(&req)

	select {
	case resp, ok := <-ch:
		return c.finish(resp, ok, ch, result)
	case <-ctx.Done():
		// Do not pool ch: the late response may still land in it.
		c.abandon(id)
		return ctx.Err()
	}
}

// finish consumes one delivered response: it recycles the call's channel
// and decodes the result (ok=false means the client broke mid-call).
func (c *Client) finish(resp Response, ok bool, ch chan Response, result any) error {
	if !ok {
		return c.brokenErr()
	}
	respChPool.Put(ch)
	if resp.Error != "" {
		return fmt.Errorf("ctlrpc: server: %s", resp.Error)
	}
	if result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return fmt.Errorf("ctlrpc: decoding result: %w", err)
		}
	}
	return nil
}

// Status fetches fabric state.
func (c *Client) Status() (StatusResult, error) {
	var r StatusResult
	err := c.call(MethodStatus, nil, &r)
	return r, err
}

// Compose composes a slice.
func (c *Client) Compose(name string, shape [3]int, cubes []int) (SliceResult, error) {
	var r SliceResult
	err := c.call(MethodCompose, ComposeParams{Name: name, Shape: shape, Cubes: cubes}, &r)
	return r, err
}

// Destroy destroys a slice.
func (c *Client) Destroy(name string) error {
	return c.call(MethodDestroy, NameParams{Name: name}, nil)
}

// DestroyIfPresent destroys a slice, succeeding as a no-op when the slice
// does not exist — the idempotent form reconcilers retry.
func (c *Client) DestroyIfPresent(name string) error {
	return c.call(MethodDestroy, NameParams{Name: name, IfPresent: true}, nil)
}

// Ensure drives the fabric toward "slice exists with this shape on these
// cubes" (core.EnsureSlice over the wire) and reports whether hardware
// changed.
func (c *Client) Ensure(name string, shape [3]int, cubes []int) (SliceResult, bool, error) {
	var r EnsureResult
	err := c.call(MethodEnsure, EnsureParams{Name: name, Shape: shape, Cubes: cubes}, &r)
	return r.Slice, r.Changed, err
}

// Slice fetches a slice's details.
func (c *Client) Slice(name string) (SliceResult, error) {
	var r SliceResult
	err := c.call(MethodSlice, NameParams{Name: name}, &r)
	return r, err
}

// Reshape changes a slice's shape in place; cubes may be nil to reuse the
// current cube set.
func (c *Client) Reshape(name string, shape [3]int, cubes []int) (SliceResult, error) {
	var r SliceResult
	err := c.call(MethodReshape, ReshapeParams{Name: name, Shape: shape, Cubes: cubes}, &r)
	return r, err
}

// FailCube reports a cube failure and returns the replacement cube (-1
// when no slice was affected).
func (c *Client) FailCube(cube int) (int, error) {
	var r FailCubeResult
	err := c.call(MethodFailCube, CubeParams{Cube: cube}, &r)
	return r.Replacement, err
}

// RepairCube returns a cube to service.
func (c *Client) RepairCube(cube int) error {
	return c.call(MethodRepairCube, CubeParams{Cube: cube}, nil)
}

// InstallCube adds a cube to the fabric.
func (c *Client) InstallCube(cube int) error {
	return c.call(MethodInstallCube, CubeParams{Cube: cube}, nil)
}

// RepairLink repatches a cube's damaged fiber pair on an OCS to a spare
// port and returns the spare port id.
func (c *Client) RepairLink(ocsID, cube int) (int, error) {
	var r RepairLinkResult
	err := c.call(MethodRepairLink, RepairLinkParams{OCS: ocsID, Cube: cube}, &r)
	return r.SparePort, err
}

// Metrics fetches the daemon's telemetry exposition (empty when metrics
// are disabled).
func (c *Client) Metrics() (string, error) {
	var r MetricsResult
	err := c.call(MethodMetrics, nil, &r)
	return r.Text, err
}

// TEStatus fetches the daemon's topology-engineering loop state; Enabled
// is false when the daemon runs no TE loop.
func (c *Client) TEStatus() (TEStatusResult, error) {
	var r TEStatusResult
	err := c.call(MethodTEStatus, nil, &r)
	return r, err
}

// ChaosStatus fetches the daemon's fault-injection state; Enabled is
// false when the daemon runs without its chaos flag.
func (c *Client) ChaosStatus() (ChaosStatusResult, error) {
	var r ChaosStatusResult
	err := c.call(MethodChaosStatus, nil, &r)
	return r, err
}

// ChaosInject applies one live fault event on the daemon.
func (c *Client) ChaosInject(p ChaosInjectParams) (ChaosInjectResult, error) {
	var r ChaosInjectResult
	err := c.call(MethodChaosInject, p, &r)
	return r, err
}

// SchedStatus fetches the daemon's slice-scheduler state; Enabled is
// false when the daemon runs no scheduler loop.
func (c *Client) SchedStatus() (SchedStatusResult, error) {
	var r SchedStatusResult
	err := c.call(MethodSchedStatus, nil, &r)
	return r, err
}

// SchedSubmit enqueues one job on the daemon's scheduler.
func (c *Client) SchedSubmit(cubes int, durationSeconds float64) (SchedSubmitResult, error) {
	var r SchedSubmitResult
	err := c.call(MethodSchedSubmit, SchedSubmitParams{Cubes: cubes, DurationSeconds: durationSeconds}, &r)
	return r, err
}

// ObserveBER feeds a BER sample and reports whether it was anomalous.
func (c *Client) ObserveBER(ocsID, port int, ber float64) (bool, error) {
	var r ObserveBERResult
	err := c.call(MethodObserveBER, ObserveBERParams{OCS: ocsID, Port: port, BER: ber}, &r)
	return r.Anomalous, err
}
