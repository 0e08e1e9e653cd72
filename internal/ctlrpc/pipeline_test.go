package ctlrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/te"
)

// startServerOn brings up a fabric daemon with explicit knobs and returns
// its address.
func startServerOn(t *testing.T, cubes, maxRequestBytes int, te TEStatusProvider) string {
	t.Helper()
	f, err := core.New(core.DefaultConfig(cubes))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := NewServer(f)
	srv.MaxRequestBytes = maxRequestBytes
	if te != nil {
		srv.SetTE(te)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, lis)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return lis.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// bigParams marshals to at least n bytes (the payload is ignored by
// status, which takes no params).
type bigParams struct {
	Pad string `json:"pad"`
}

func pad(n int) bigParams { return bigParams{Pad: strings.Repeat("x", n)} }

// TestOversizedRequestTypedError: a request line over the server's cap gets
// the typed "request too large" error — under the caller's request ID — and
// the connection survives for later calls. The old bufio.Scanner path
// silently dropped the connection instead.
func TestOversizedRequestTypedError(t *testing.T) {
	addr := startServerOn(t, 2, 4096, nil)
	c := dialT(t, addr)

	// A normal call first, so the oversized one is mid-stream.
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	err := c.call(MethodStatus, pad(8192), nil)
	if err == nil {
		t.Fatal("oversized request accepted")
	}
	if err == nil || !strings.Contains(err.Error(), errRequestTooLarge) {
		t.Fatalf("err = %v, want request-too-large", err)
	}
	// Same connection keeps working, and the stream is still in sync.
	st, err := c.Status()
	if err != nil {
		t.Fatalf("connection dead after oversized request: %v", err)
	}
	if st.InstalledCubes != 2 {
		t.Fatalf("status = %+v", st)
	}
	if n := c.UnknownResponses(); n != 0 {
		t.Fatalf("id mismatches after oversized request: %d", n)
	}
}

// TestLargeRequestUnder64KBScannerLimit: a valid request far beyond
// bufio.Scanner's 64KB default token limit round-trips fine — the regression
// the limited line reader exists to prevent.
func TestLargeRequestBeyond64KB(t *testing.T) {
	c := startServer(t, 2)
	// ~256KB of ignored params on a status call.
	if err := c.call(MethodStatus, pad(256*1024), nil); err != nil {
		t.Fatalf(">64KB request rejected: %v", err)
	}
}

// gatedTE blocks TEStatus until released, to hold a read-only request
// in-flight on the server.
type gatedTE struct {
	entered chan struct{} // closed once TEStatus is running
	release chan struct{}
	once    sync.Once
}

func newGatedTE() *gatedTE {
	return &gatedTE{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedTE) Status() te.Status {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return te.Status{}
}

// TestPipelinedRequestsOverlapOnOneConnection proves true pipelining end to
// end: while one read-only call (te-status) is blocked inside its handler,
// a second call issued on the SAME client connection completes. Neither the
// single-in-flight client nor the sequential per-connection server loop of
// the old implementation could do this.
func TestPipelinedRequestsOverlapOnOneConnection(t *testing.T) {
	gate := newGatedTE()
	addr := startServerOn(t, 2, 0, gate)
	c := dialT(t, addr)

	teDone := make(chan error, 1)
	go func() {
		_, err := c.TEStatus()
		teDone <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("te-status never reached the handler")
	}

	// te-status is parked inside the server; status must still round-trip.
	statusDone := make(chan error, 1)
	go func() {
		_, err := c.Status()
		statusDone <- err
	}()
	select {
	case err := <-statusDone:
		if err != nil {
			t.Fatalf("overlapped status: %v", err)
		}
	case err := <-teDone:
		t.Fatalf("te-status finished before release (err %v)", err)
	case <-time.After(2 * time.Second):
		t.Fatal("status call queued behind a blocked read: no pipelining")
	}

	close(gate.release)
	if err := <-teDone; err != nil {
		t.Fatalf("te-status after release: %v", err)
	}
}

// TestSharedClientConcurrentMixedMethods hammers ONE client from many
// goroutines with interleaved read-only and mutating methods; every
// response must land on the call that issued it (the per-call payload
// checks catch any demux error) and cancelling one call must not disturb
// the others. Run with -race this exercises the full pipeline: client
// writer/reader, server decode/worker/writer stages, and the RWMutex
// dispatch.
func TestSharedClientConcurrentMixedMethods(t *testing.T) {
	c := startServer(t, 16)

	const workers = 8
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters*4)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cubes := []int{2 * id, 2*id + 1}
			name := fmt.Sprintf("job-%d", id)
			for it := 0; it < iters; it++ {
				sl, err := c.Compose(name, [3]int{4, 4, 8}, cubes)
				if err != nil {
					errs <- fmt.Errorf("worker %d compose: %w", id, err)
					return
				}
				if sl.Name != name {
					errs <- fmt.Errorf("worker %d got slice %q: response/request mismatch", id, sl.Name)
					return
				}
				got, err := c.Slice(name)
				if err != nil {
					errs <- fmt.Errorf("worker %d slice: %w", id, err)
					return
				}
				if got.Name != name || len(got.Cubes) != 2 {
					errs <- fmt.Errorf("worker %d fetched %+v: response/request mismatch", id, got)
					return
				}
				if _, err := c.Status(); err != nil {
					errs <- fmt.Errorf("worker %d status: %w", id, err)
					return
				}
				// One caller abandoning on a dead context must not poison
				// the shared client.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := c.CallContext(ctx, MethodStatus, nil, nil); !errors.Is(err, context.Canceled) {
					errs <- fmt.Errorf("worker %d cancelled call: %w", id, err)
					return
				}
				if err := c.Destroy(name); err != nil {
					errs <- fmt.Errorf("worker %d destroy: %w", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := c.UnknownResponses(); n != 0 {
		t.Fatalf("request-ID mismatches under concurrency: %d", n)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCircuits != 0 || len(st.Slices) != 0 {
		t.Fatalf("fabric left dirty: %+v", st)
	}
}

// TestPeekRequestID pins the ID-salvage behaviour for oversized lines.
func TestPeekRequestID(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{`{"id":42,"method":"status"}`, 42},
		{`{"id": 7}`, 7},
		{`{"method":"status","id":3}`, 3},
		{`{"method":"status"}`, 0},
		{`garbage`, 0},
		{`{"id":}`, 0},
	}
	for _, tc := range cases {
		if got := peekRequestID([]byte(tc.in)); got != tc.want {
			t.Errorf("peekRequestID(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// settledGoroutines waits up to 2 s for the goroutine count to fall to
// want and returns the last count it read.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// warmGoroutines runs one warm-up exchange and returns the goroutine count
// once it has settled: the baseline the leak tests measure against.
func warmGoroutines(t *testing.T, warm func()) int {
	t.Helper()
	warm()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestServeReleasesClosedConnections: a served connection's goroutines end
// with its socket, not with the server, so a daemon that outlives many
// short-lived clients does not accumulate one goroutine per client.
func TestServeReleasesClosedConnections(t *testing.T) {
	addr := startServerOn(t, 2, 0, nil)
	cycle := func() {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	base := warmGoroutines(t, cycle)
	for range 200 {
		cycle()
	}
	if n := settledGoroutines(base + 2); n > base+2 {
		t.Fatalf("200 closed connections left %d goroutines over the warm baseline of %d", n-base, base)
	}
}

// TestPipelinedStatusAllocatesNothing pins the closed loop's allocation
// budget: a cached status read crosses the client writer, the server's
// inline dispatch and writer, and the client reader without allocating.
func TestPipelinedStatusAllocatesNothing(t *testing.T) {
	c := startServer(t, 2)
	ctx := context.Background()
	status := func() {
		if err := c.CallContext(ctx, MethodStatus, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	status() // fills the generation cache and starts the loops
	if n := testing.AllocsPerRun(2000, status); n != 0 {
		t.Fatalf("pipelined status allocates %v times per call, want 0", n)
	}
}

// BenchmarkPipelinedStatus: eight callers share one client, so requests
// and responses batch in both writers.
func BenchmarkPipelinedStatus(b *testing.B) {
	c := startServer(b, 2)
	ctx := context.Background()
	const callers = 8
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := c.CallContext(ctx, MethodStatus, nil, nil); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
