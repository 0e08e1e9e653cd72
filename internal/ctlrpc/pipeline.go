package ctlrpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lightwave/internal/telemetry"
)

// Per-connection request pipeline.
//
// Running decode → execute → encode strictly sequentially per connection
// lets a slow mutation stall every queued request, and encoding never
// overlaps execution. The pipeline splits the stages: one reader
// goroutine decodes newline-delimited requests, a small worker pool
// executes them (read-only methods run concurrently under the server's
// RWMutex), and one writer goroutine drains encoded responses through a
// buffered writer, coalescing bursts of pipelined responses into a single
// flush/syscall. Responses are matched to requests by ID, so out-of-order
// completion is part of the protocol contract.

const (
	// DefaultMaxRequestBytes caps one request line. Oversized lines are
	// drained and answered with a typed "request too large" error instead
	// of killing the connection (the old bufio.Scanner path dropped the
	// conn with no response at all). A Client applies the same cap to
	// response lines and breaks (ErrClientBroken) on an oversized one.
	DefaultMaxRequestBytes = 4 << 20

	// connWorkers is the per-connection execution width. Read-heavy
	// pollers (status/metrics/te-status/...) overlap under the server's
	// read lock; mutations still serialize on the write lock.
	connWorkers = 4

	// writeBufBytes sizes the batch buffer a connection's writer
	// coalesces lines into, at either end.
	writeBufBytes = 32 * 1024
)

// ctlMetrics carries the control-plane serving metrics the daemons expose
// on /metrics. A nil *ctlMetrics is a valid no-op.
type ctlMetrics struct {
	requests *telemetry.Counter
	inflight *telemetry.Gauge
	latency  *telemetry.Distribution
}

// latencyBounds buckets request latency from 1µs to 5s.
var latencyBounds = []float64{
	1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1, 2, 5,
}

func newCtlMetrics(reg *telemetry.Registry) *ctlMetrics {
	if reg == nil {
		return nil
	}
	return &ctlMetrics{
		requests: reg.Counter("ctl_requests_total"),
		inflight: reg.Gauge("ctl_inflight"),
		latency:  reg.Distribution("ctl_request_latency_seconds", latencyBounds...),
	}
}

func (m *ctlMetrics) begin() time.Time {
	if m == nil {
		return time.Time{}
	}
	m.inflight.Add(1)
	return time.Now()
}

func (m *ctlMetrics) end(start time.Time) {
	if m == nil {
		return
	}
	m.inflight.Add(-1)
	m.requests.Inc()
	m.latency.Observe(time.Since(start).Seconds())
}

// batchWriter owns one connection's write half: a Client's requests and a
// served connection's responses go through the same type. Senders encode
// directly into a shared batch buffer under a mutex and nudge the flusher
// through a one-slot wake channel; the flusher swaps in an empty buffer and
// writes the whole batch in one syscall. Compared to a line-per-channel-
// element design this makes goroutine wakeups per-batch instead of
// per-line, which is most of the win on loaded connections.
type batchWriter struct {
	conn   net.Conn
	fail   func(error) // called once, from the flusher, with the first write error
	mu     sync.Mutex
	buf    []byte        // lines encoded since the last flush
	closed bool          // no more sends; flush what remains and exit
	kick   chan struct{} // one-slot wake signal for the flusher
	sent   atomic.Int64  // lines encoded so far; batch-growth probe
	failed atomic.Bool
	done   chan struct{} // closed when the flusher exits
}

// newBatchWriter starts the flusher for conn.
func newBatchWriter(conn net.Conn, fail func(error)) *batchWriter {
	w := &batchWriter{
		conn: conn,
		fail: fail,
		buf:  make([]byte, 0, writeBufBytes),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *batchWriter) run() {
	defer close(w.done)
	local := make([]byte, 0, writeBufBytes)
	for range w.kick {
		// Yield while the batch is still growing: each yield lets runnable
		// senders encode the lines they just finished, so one write (one
		// syscall) carries the whole burst instead of one line each. Stop
		// as soon as a yield adds nothing — latency only pays for batching
		// that actually happens.
		for prev, spins := w.sent.Load(), 0; spins < 4; spins++ {
			runtime.Gosched()
			n := w.sent.Load()
			if n <= prev {
				break
			}
			prev = n
		}
		w.mu.Lock()
		local, w.buf = w.buf, local[:0]
		closed := w.closed
		w.mu.Unlock()
		if len(local) > 0 {
			if _, err := w.conn.Write(local); err != nil {
				// Senders keep appending into a buffer nobody flushes,
				// which is bounded by the lines already in flight.
				w.failed.Store(true)
				w.fail(err)
				return
			}
		}
		if closed {
			return
		}
	}
}

// wake counts one more encoded line and nudges the flusher; it reports
// false once the write half failed.
func (w *batchWriter) wake() bool {
	w.sent.Add(1)
	select {
	case w.kick <- struct{}{}:
	default: // flusher already scheduled to run
	}
	return !w.failed.Load()
}

// sendRequest encodes one request line.
func (w *batchWriter) sendRequest(req *Request) {
	w.mu.Lock()
	w.buf = appendRequest(w.buf, req)
	w.mu.Unlock()
	w.wake()
}

// send encodes one response line; it reports false once the write half
// failed, which ends an event stream pumping a dead connection.
func (w *batchWriter) send(resp Response) bool {
	w.mu.Lock()
	w.buf = appendResponse(w.buf, &resp)
	w.mu.Unlock()
	return w.wake()
}

// close makes the flusher write whatever is still buffered and exit; done
// closes once it has. It does not wait, because a Client closes from its
// own flusher when a write fails.
func (w *batchWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.wake()
}

// serveConn runs the pipelined request loop for one connection. A
// lockRead call executes on the reader when TryRLock succeeds, in place
// of the worker handoff; the attempt declines rather than blocks, and a
// pipelined burst of reads is served inside one read timeslice while the
// flusher's yield loop gathers the answers into one write. A stream entry
// dedicates the connection to its server-push stream once in-flight
// workers drained.
//
// The connection has one lifetime, a context derived from the server's:
// the server's end or a write failure cancels it, and the reader's end
// does once the workers drained and the writer flushed (after a watch
// upgrade, at once, which ends the stream). Its end closes the socket
// through context.AfterFunc, which stops the reader; no goroutine sits
// waiting on the context.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	context.AfterFunc(ctx, func() { conn.Close() })
	maxLine := s.MaxRequestBytes
	if maxLine <= 0 {
		maxLine = DefaultMaxRequestBytes
	}
	m := s.metrics
	w := newBatchWriter(conn, func(error) { cancel() })

	callCh := make(chan call, connWorkers)
	var wg sync.WaitGroup
	for i := 0; i < connWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range callCh {
				start := m.begin()
				resp := s.dispatch(c)
				m.end(start)
				w.send(resp)
			}
		}()
	}

	var stream *method
	br := bufio.NewReaderSize(conn, 64*1024)
	// Hoisted out of the loop: &c escapes into parseRequest, so an
	// in-loop declaration heap-allocates per request. Each channel send
	// copies the value, so reuse is safe.
	var c call
	for {
		line, tooLong, err := readLimitedLine(br, maxLine)
		if tooLong {
			// Drain the request without killing the connection and
			// answer with the typed error under whatever ID we could
			// salvage from the line's prefix.
			if err == bufio.ErrBufferFull {
				_ = drainLine(br) // a read error resurfaces on the next read
			}
			w.send(Response{
				ID:    peekRequestID(line),
				Error: fmt.Sprintf("%s: request line exceeds %d bytes", errRequestTooLarge, maxLine),
			})
			continue
		}
		if err != nil {
			break
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if uerr := s.methods.parseRequest(line, &c); uerr != nil {
			w.send(Response{Error: fmt.Sprintf("bad request: %v", uerr)})
			continue
		}
		if c.m != nil && c.m.stream != nil {
			stream = c.m
			break
		}
		if c.m != nil && c.m.lock == lockRead && s.mu.TryRLock() {
			// The handler consumes params before the next read, so the
			// buffer-aliasing fast-path slices need no detach copy.
			start := m.begin()
			resp := s.readLocked(c)
			s.mu.RUnlock()
			m.end(start)
			w.send(resp)
			continue
		}
		// The fast-path params alias the reader buffer; the worker outlives
		// the next read, so detach them.
		if len(c.params) != 0 {
			c.params = append(json.RawMessage(nil), c.params...)
		}
		callCh <- c
	}

	close(callCh)
	wg.Wait()
	if stream != nil {
		// The connection is now dedicated to the stream; in-flight unary
		// responses are already queued, and the client demuxes by ID. The
		// reader reads on to the client's hang-up, which ends the stream;
		// it ends itself when the socket closes.
		go func() {
			_, _ = io.Copy(io.Discard, br)
			cancel()
		}()
		stream.stream(ctx, w.send, c.id)
	}
	w.close()
	<-w.done
}

// readLimitedLine reads one newline-terminated line, growing up to max
// bytes. When the line exceeds max it returns tooLong=true with the
// first-kilobyte prefix (for request-ID salvage), and err is
// bufio.ErrBufferFull if the rest of the line is still unread: the server
// drains it (drainLine), a client gives up on the stream. json.Unmarshal
// of the returned line must complete before the next call: the slice
// aliases the reader's internal buffer.
func readLimitedLine(br *bufio.Reader, max int) (line []byte, tooLong bool, err error) {
	frag, err := br.ReadSlice('\n')
	if err == nil || err == io.EOF {
		// The line (or final unterminated fragment) is fully consumed;
		// nothing is left to drain even if it is over the cap.
		if err == io.EOF && len(frag) == 0 {
			return nil, false, io.EOF
		}
		if len(frag) > max {
			return capPrefix(frag), true, nil
		}
		return frag, false, nil
	}
	if err != bufio.ErrBufferFull {
		return nil, false, err
	}
	// Line longer than the reader's buffer: accumulate up to max.
	acc := append([]byte(nil), frag...)
	for {
		frag, err = br.ReadSlice('\n')
		acc = append(acc, frag...)
		switch err {
		case nil, io.EOF:
			if len(acc) > max {
				return capPrefix(acc), true, nil
			}
			return acc, false, nil
		case bufio.ErrBufferFull:
			if len(acc) >= max {
				// max bytes and no newline yet: with its newline the line
				// is over the cap, so there is no need to wait for it.
				return capPrefix(acc), true, err
			}
		default:
			return nil, false, err
		}
	}
}

// drainLine discards input until the end of the current (overlong) line.
func drainLine(br *bufio.Reader) error {
	for {
		_, err := br.ReadSlice('\n')
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil, io.EOF:
			return nil
		default:
			return err
		}
	}
}

// capPrefix copies at most 1 KB of an oversized line so the reader buffer
// can be reused while the error response is built.
func capPrefix(b []byte) []byte {
	if len(b) > 1024 {
		b = b[:1024]
	}
	return append([]byte(nil), b...)
}

// peekRequestID salvages the "id" field from an oversized request's
// prefix so the typed error lands on the right pending call. The client
// marshals Request with id first, so the field is almost always within
// the first kilobyte; 0 (matching no call) is returned when it is not,
// or when its value is no uint64.
func peekRequestID(prefix []byte) uint64 {
	i := bytes.Index(prefix, []byte(`"id"`))
	if i < 0 {
		return 0
	}
	i += len(`"id"`)
	for i < len(prefix) && (prefix[i] == ':' || prefix[i] == ' ' || prefix[i] == '\t') {
		i++
	}
	id, _, _ := eatUint(prefix, i)
	return id
}
