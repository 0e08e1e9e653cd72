package ctlrpc

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/fleet"
	"lightwave/internal/telemetry"
)

// startServer brings up a fabric daemon on a loopback listener and returns
// a connected client.
func startServer(t testing.TB, cubes int) *Client {
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
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, lis)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	c, err := Dial(lis.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStatusRoundTrip(t *testing.T) {
	c := startServer(t, 8)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.InstalledCubes != 8 || len(st.FreeCubes) != 8 || st.TotalCircuits != 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestComposeDestroyOverWire(t *testing.T) {
	c := startServer(t, 8)
	sl, err := c.Compose("job", [3]int{4, 4, 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sl.Circuits != 192 || sl.Name != "job" {
		t.Fatalf("slice = %+v", sl)
	}
	if sl.WorstMarginDB <= 0 {
		t.Fatal("no margin reported")
	}
	got, err := c.Slice("job")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "job" || len(got.Cubes) != 4 {
		t.Fatalf("slice fetch = %+v", got)
	}
	st, _ := c.Status()
	if len(st.Slices) != 1 || st.Slices[0] != "job" || st.TotalCircuits != 192 {
		t.Fatalf("status = %+v", st)
	}
	if err := c.Destroy("job"); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Status()
	if st.TotalCircuits != 0 {
		t.Fatalf("circuits after destroy = %d", st.TotalCircuits)
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	c := startServer(t, 4)
	if _, err := c.Compose("bad", [3]int{3, 4, 4}, []int{0}); err == nil {
		t.Fatal("invalid shape accepted")
	} else if !strings.Contains(err.Error(), "server:") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Destroy("missing"); err == nil {
		t.Fatal("missing slice accepted")
	}
	if _, err := c.Slice("missing"); err == nil {
		t.Fatal("missing slice fetched")
	}
}

func TestFailRepairInstallOverWire(t *testing.T) {
	c := startServer(t, 4)
	if _, err := c.Compose("j", [3]int{4, 4, 8}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	rc, err := c.FailCube(0)
	if err != nil {
		t.Fatal(err)
	}
	if rc < 2 {
		t.Fatalf("replacement = %d", rc)
	}
	if err := c.RepairCube(0); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallCube(10); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Status()
	if st.InstalledCubes != 5 {
		t.Fatalf("installed = %d", st.InstalledCubes)
	}
}

func TestObserveBEROverWire(t *testing.T) {
	c := startServer(t, 2)
	anom, err := c.ObserveBER(0, 0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if anom {
		t.Fatal("healthy BER flagged")
	}
	anom, err = c.ObserveBER(0, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !anom {
		t.Fatal("KP4 breach not flagged")
	}
}

func TestConcurrentClients(t *testing.T) {
	c := startServer(t, 16)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Status(); err != nil {
				errs <- err
			}
			if _, err := c.ObserveBER(i%48, i, 1e-6); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUnknownMethod(t *testing.T) {
	c := startServer(t, 2)
	err := c.call("bogus", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

func TestMalformedRequestDoesNotKillConnection(t *testing.T) {
	c := startServer(t, 2)
	// Speak the wire protocol directly on a second connection: garbage,
	// then a valid request on the same connection.
	conn, err := net.Dial("tcp", c.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("not json\n")); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("error response not JSON: %v (%q)", err, line)
	}
	if !strings.Contains(resp.Error, "bad request") {
		t.Fatalf("error = %q", resp.Error)
	}
	if _, err := conn.Write([]byte(`{"id":7,"method":"status"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err = br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("connection broken after malformed request: %v", err)
	}
	resp = Response{}
	if err := json.Unmarshal(line, &resp); err != nil || resp.ID != 7 || resp.Error != "" {
		t.Fatalf("status after garbage = %+v (err %v)", resp, err)
	}
}

func TestReshapeOverWire(t *testing.T) {
	c := startServer(t, 8)
	if _, err := c.Compose("j", [3]int{4, 4, 16}, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	sl, err := c.Reshape("j", [3]int{4, 8, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Shape != [3]int{4, 8, 8} {
		t.Fatalf("shape = %v", sl.Shape)
	}
	if _, err := c.Reshape("missing", [3]int{4, 4, 4}, nil); err == nil {
		t.Fatal("missing slice reshaped")
	}
}

func TestMetricsOverWire(t *testing.T) {
	// startServer builds the fabric without a registry: empty exposition.
	c := startServer(t, 2)
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if text != "" {
		t.Fatalf("metrics without a registry = %q", text)
	}
}

func TestMetricsWithRegistry(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Metrics = telemetry.NewRegistry()
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = NewServer(f).Serve(ctx, lis)
	}()
	t.Cleanup(func() { cancel(); <-done })
	c, err := Dial(lis.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if _, err := c.Compose("j", [3]int{4, 4, 4}, []int{0}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "fabric.slices_composed 1") {
		t.Fatalf("exposition missing slice counter:\n%s", text)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
}

func TestServeStopsOnContextCancel(t *testing.T) {
	f, err := core.New(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- NewServer(f).Serve(ctx, lis) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on cancel", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not stop on context cancel")
	}
}

func TestServerConnectionCloseMidStream(t *testing.T) {
	c := startServer(t, 2)
	// Close the client abruptly; the server must keep serving others.
	c2 := startServer(t, 2)
	c.Close()
	if _, err := c2.Status(); err != nil {
		t.Fatalf("second server session broken: %v", err)
	}
}

// TestLockReadIsFabricReadsOnly guards the contract inline read dispatch
// rests on: the connection reader runs every lockRead entry itself, so only
// handlers that touch nothing but the fabric may be lockRead. A provider or
// fleet method there would stall request decoding behind the provider.
func TestLockReadIsFabricReadsOnly(t *testing.T) {
	f, err := core.New(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m := fleet.NewManager(fleet.Options{})
	t.Cleanup(m.Close)
	fabric, fl := NewServer(f), NewFleetServer(m)
	for _, s := range []*Server{fabric, fl} {
		s.SetTE(fixedTE{})
		s.SetChaos(fixedChaos{})
		s.SetSched(fixedSched{})
		s.SetWAL(fixedWAL{})
		s.SetJournal(refusingJournal{})
		s.SetMetrics(telemetry.NewRegistry())
	}
	lockRead := func(s *Server) []string {
		var names []string
		for name, m := range s.methods {
			if m.lock == lockRead {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		return names
	}
	if got, want := lockRead(fabric), []string{MethodMetrics, MethodSlice, MethodStatus}; !slices.Equal(got, want) {
		t.Errorf("NewServer lockRead entries = %v, want %v", got, want)
	}
	if got := lockRead(fl); len(got) != 0 {
		t.Errorf("NewFleetServer lockRead entries = %v, want none", got)
	}
}

// recordingJournal keeps every command journaled through it.
type recordingJournal struct {
	mu   sync.Mutex
	cmds []string
}

func (j *recordingJournal) Append(p []byte) (uint64, error) {
	method, params, err := decodeCommand(p)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cmds = append(j.cmds, method+" "+string(params))
	return uint64(len(j.cmds)), nil
}

// TestNonJSONParamsNotJournaled: a journal-marked call whose params are no
// JSON is a bad request, answered before any handler runs, so nothing
// reaches the journal; the well-formed compose after it is journaled.
func TestNonJSONParamsNotJournaled(t *testing.T) {
	f, err := core.New(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(f)
	j := &recordingJournal{}
	srv.SetJournal(j)
	compose := `{"id":2,"method":"compose","params":{"name":"a","shape":[4,4,4],"cubes":[0]}}`
	got := string(runWireScript(t, srv.Serve, nil, sends(`{"id":1,"method":"compose","params":nope}`, compose)))
	if !strings.Contains(got, `< {"id":0,"error":"bad request: `) {
		t.Errorf("non-JSON params not answered as a bad request:\n%s", got)
	}
	if want := []string{`compose {"name":"a","shape":[4,4,4],"cubes":[0]}`}; !slices.Equal(j.cmds, want) {
		t.Errorf("journaled %q, want %q", j.cmds, want)
	}
}
