package ctlrpc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// silentListener accepts connections and reads requests without ever
// responding — a hung server.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	return lis
}

func TestCallContextDeadline(t *testing.T) {
	lis := silentListener(t)
	c, err := Dial(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.CallContext(ctx, MethodStatus, nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not honoured: blocked %v", elapsed)
	}

	// Abandoning a call does NOT break the client: the ID is forgotten and
	// the client stays usable, so a second call times out the same way
	// instead of failing fast with ErrClientBroken.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if err := c.CallContext(ctx2, MethodStatus, nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call after abandoned call: %v", err)
	}
}

// TestAbandonedCallDoesNotPoisonLater drives the full late-response path: a
// server that answers the first request slowly makes the caller's deadline
// expire, the late response arrives after abandonment and is dropped by ID,
// and a subsequent call on the same client succeeds.
func TestAbandonedCallDoesNotPoisonLater(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		first := true
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			var req Request
			if err := json.Unmarshal(line, &req); err != nil {
				return
			}
			if first {
				first = false
				time.Sleep(300 * time.Millisecond) // past the caller's deadline
			}
			resp := marshalResponse(req.ID, StatusResult{InstalledCubes: 1}, nil)
			out, _ := json.Marshal(&resp)
			if _, err := conn.Write(append(out, '\n')); err != nil {
				return
			}
		}
	}()
	c, err := Dial(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.CallContext(ctx, MethodStatus, nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first call: %v", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatalf("call after abandoned call: %v", err)
	}
	if st.InstalledCubes != 1 {
		t.Fatalf("status = %+v", st)
	}
	if n := c.UnknownResponses(); n != 0 {
		t.Fatalf("late response for an abandoned ID counted as unknown (%d)", n)
	}
}

func TestCallContextCancel(t *testing.T) {
	lis := silentListener(t)
	c, err := Dial(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if err := c.CallContext(ctx, MethodStatus, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallContextAlreadyExpired(t *testing.T) {
	c := startServer(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.CallContext(ctx, MethodStatus, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// A pre-call context error must NOT break the client: nothing hit the
	// wire.
	if _, err := c.Status(); err != nil {
		t.Fatalf("client broken by pre-call ctx error: %v", err)
	}
}

// TestUnknownResponseIDLoggedAndDropped feeds the client a response with an
// ID it never issued: the stray is counted and dropped, and the call it was
// interleaved with still completes with the right payload.
func TestUnknownResponseIDLoggedAndDropped(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		stray := true
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			var req Request
			if err := json.Unmarshal(line, &req); err != nil {
				return
			}
			if stray {
				stray = false
				fmt.Fprintf(conn, "{\"id\":999}\n") // never issued
			}
			resp := marshalResponse(req.ID, StatusResult{InstalledCubes: 2}, nil)
			out, _ := json.Marshal(&resp)
			if _, err := conn.Write(append(out, '\n')); err != nil {
				return
			}
		}
	}()
	c, err := Dial(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Status()
	if err != nil {
		t.Fatalf("call interleaved with stray response: %v", err)
	}
	if st.InstalledCubes != 2 {
		t.Fatalf("status = %+v", st)
	}
	// The stray may race the real response; wait for the reader to count it.
	deadline := time.Now().Add(time.Second)
	for c.UnknownResponses() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.UnknownResponses(); n != 1 {
		t.Fatalf("unknown responses = %d, want 1", n)
	}
	// The stream stayed in sync: later calls keep working.
	if _, err := c.Status(); err != nil {
		t.Fatalf("call after stray response: %v", err)
	}
}

// TestClientBrokenAfterTransportError: an undecodable response is a genuine
// transport fault — the stream is unusable, so the client goes sticky-broken
// and later calls (and Watch) fail fast.
func TestClientBrokenAfterTransportError(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		fmt.Fprintf(conn, "not json\n")
		// Keep the connection open so only the decode error is at play.
		time.Sleep(time.Second)
	}()
	c, err := Dial(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("first call: %v", err)
	}
	if _, err := c.Status(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("second call: %v", err)
	}
	if _, err := c.Watch(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("watch on broken client: %v", err)
	}
}

// TestClientBrokenOnOverlongResponse: a peer that streams a response line
// past DefaultMaxRequestBytes and never ends it breaks the client instead
// of making it buffer without bound. The deadline keeps a client that does
// buffer from hanging the test.
func TestClientBrokenOnOverlongResponse(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		line := make([]byte, DefaultMaxRequestBytes+1)
		for i := range line {
			line[i] = 'x'
		}
		if _, err := conn.Write(line); err != nil {
			return
		}
		// Hold the connection open with the line unterminated.
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := Dial(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = c.CallContext(ctx, MethodStatus, nil, nil)
	if !errors.Is(err, ErrClientBroken) || !strings.Contains(err.Error(), "response line exceeds") {
		t.Fatalf("err = %v, want ErrClientBroken naming the over-long response line", err)
	}
}

// TestConcurrentMultiClientStress hammers one daemon from many clients and
// goroutines issuing compose/destroy/status; run under -race it checks the
// server's serialization end to end.
func TestConcurrentMultiClientStress(t *testing.T) {
	c0 := startServer(t, 16)
	addr := c0.conn.RemoteAddr().String()

	const clients = 8
	const iters = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*iters*3)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// Each client owns two cubes, so composes never collide.
			cubes := []int{2 * id, 2*id + 1}
			name := fmt.Sprintf("job-%d", id)
			for it := 0; it < iters; it++ {
				if _, err := c.Compose(name, [3]int{4, 4, 8}, cubes); err != nil {
					errs <- fmt.Errorf("client %d compose: %w", id, err)
					return
				}
				if _, err := c.Status(); err != nil {
					errs <- fmt.Errorf("client %d status: %w", id, err)
					return
				}
				if _, err := c.ObserveBER(id%48, id, 1e-6); err != nil {
					errs <- fmt.Errorf("client %d ber: %w", id, err)
					return
				}
				if err := c.Destroy(name); err != nil {
					errs <- fmt.Errorf("client %d destroy: %w", id, err)
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
	st, err := c0.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCircuits != 0 || len(st.Slices) != 0 {
		t.Fatalf("daemon left dirty: %+v", st)
	}
}
