package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightwave/internal/ctlrpc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/status.golden from the running implementation")

// TestStatusOutput holds what `lwfctl ... status` prints to
// testdata/status.golden. Its inputs are the status results the ctlrpc wire
// goldens pin, attached and bare: each is decoded into the type the client
// method returns, printed by the lwfctl printer, and re-marshaled, which
// must give the golden's result bytes back — so a status type that drops,
// renames or reorders a field on the wire fails here as well as in
// TestWireGolden.
func TestStatusOutput(t *testing.T) {
	printers := map[string]func(*testing.T, json.RawMessage) string{
		ctlrpc.MethodTEStatus:    printer((*ctlrpc.Client).TEStatus, printTEStatus),
		ctlrpc.MethodChaosStatus: printer((*ctlrpc.Client).ChaosStatus, printChaosStatus),
		ctlrpc.MethodSchedStatus: printer((*ctlrpc.Client).SchedStatus, printSchedStatus),
		ctlrpc.MethodWALStatus:   printer((*ctlrpc.Client).WALStatus, printWALStatus),
		ctlrpc.MethodFleetStatus: printer((*ctlrpc.Client).FleetStatus, printFleetStatus),
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "internal", "ctlrpc", "testdata", "wire", "*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no wire goldens: %v", err)
	}
	var out bytes.Buffer
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		var req ctlrpc.Request
		for sc.Scan() {
			line := sc.Text()
			if sent, ok := strings.CutPrefix(line, "> "); ok {
				req = ctlrpc.Request{}
				_ = json.Unmarshal([]byte(sent), &req) // junk lines leave no method
				continue
			}
			got, ok := strings.CutPrefix(line, "< ")
			print := printers[req.Method]
			if !ok || print == nil {
				continue
			}
			var resp ctlrpc.Response
			if err := json.Unmarshal([]byte(got), &resp); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if resp.Error != "" {
				continue
			}
			fmt.Fprintf(&out, "== %s id %d %s\n", filepath.Base(path), req.ID, req.Method)
			out.WriteString(print(t, resp.Result))
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join("testdata", "status.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("lwfctl status output diverged from %s:\ngot:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}

// printer decodes a wire result into T, the type the client method call
// returns, checks it re-marshals to the same bytes, and returns what print
// writes to stdout for it.
func printer[T any](_ func(*ctlrpc.Client) (T, error), print func(T)) func(*testing.T, json.RawMessage) string {
	return func(t *testing.T, raw json.RawMessage) string {
		t.Helper()
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
		if back, err := json.Marshal(v); err != nil || !bytes.Equal(back, raw) {
			t.Errorf("%T re-marshals to\n%s (err %v)\nwant\n%s", v, back, err, raw)
		}
		return captureStdout(t, func() { print(v) })
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	os.Stdout = saved
	w.Close()
	b := <-done
	r.Close()
	return string(b)
}
