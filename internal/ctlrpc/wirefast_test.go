package ctlrpc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAppendRequestMatchesEncodingJSON: the hand-rolled encoder must emit
// exactly what encoding/json emits for the same frame, so either side can
// be upgraded independently.
func TestAppendRequestMatchesEncodingJSON(t *testing.T) {
	cases := []Request{
		{ID: 1, Method: "status"},
		{ID: 18446744073709551615, Method: "fail-cube", Params: json.RawMessage(`{"cube":3}`)},
		{ID: 7, Method: `we"ird\method`, Params: json.RawMessage(`[1,2]`)},
		{ID: 0, Method: "täst<>&"},
	}
	for _, req := range cases {
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := appendRequest(nil, &req)
		if !bytes.Equal(got, want) {
			t.Errorf("appendRequest(%+v)\n got %s want %s", req, got, want)
		}
	}
}

func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	cases := []Response{
		{ID: 1},
		{ID: 2, Error: "no such slice \"x\""},
		{ID: 3, Result: json.RawMessage(`{"slices":["a","b"]}`)},
		{ID: 4, Error: "bad <input> & more"},
	}
	for _, resp := range cases {
		want, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := appendResponse(nil, &resp)
		if !bytes.Equal(got, want) {
			t.Errorf("appendResponse(%+v)\n got %s want %s", resp, got, want)
		}
	}
}

// TestParseRoundTrip drives every frame shape through encode→parse,
// including ones that must take the encoding/json fallback (reordered
// fields, escaped strings, whitespace).
func TestParseRoundTrip(t *testing.T) {
	reg := registry{}
	reg.add(&method{name: "status"})
	reg.add(&method{name: "compose"})
	reqs := []Request{
		{ID: 1, Method: "status"},
		{ID: 2, Method: "compose", Params: json.RawMessage(`{"name":"j","shape":[4,4,8]}`)},
		{ID: 3, Method: `esc"aped`},
		{ID: 4, Method: "unregistered"},
	}
	for _, want := range reqs {
		line := appendRequest(nil, &want)
		var got call
		if err := reg.parseRequest(line, &got); err != nil {
			t.Fatalf("parseRequest(%s): %v", line, err)
		}
		// A registered method binds to its entry; anything else keeps its
		// name for the unknown-method error.
		method := got.name
		if got.m != nil {
			method = got.m.name
		}
		if got.m != reg[want.Method] || got.id != want.ID || method != want.Method || !bytes.Equal(got.params, want.Params) {
			t.Errorf("round trip %+v -> %+v", want, got)
		}
	}
	resps := []Response{
		{ID: 1},
		{ID: 2, Error: "boom"},
		{ID: 3, Result: json.RawMessage(`"x}"`)}, // brace inside the payload
		{ID: 4, Result: json.RawMessage(`{"n":[1,2,{"m":3}]}`)},
	}
	for _, want := range resps {
		line := appendResponse(nil, &want)
		var got Response
		if err := parseResponse(line, &got); err != nil {
			t.Fatalf("parseResponse(%s): %v", line, err)
		}
		if got.ID != want.ID || got.Error != want.Error || !bytes.Equal(got.Result, want.Result) {
			t.Errorf("round trip %+v -> %+v", want, got)
		}
	}
	// Fallback shapes the fast path cannot claim.
	var req call
	if err := reg.parseRequest([]byte(`{"method":"status","id":9}`), &req); err != nil || req.id != 9 || req.m != reg["status"] {
		t.Errorf("reordered request parse = %+v (err %v)", req, err)
	}
	var resp Response
	if err := parseResponse([]byte(`{"result":[1],"id":8}`), &resp); err != nil || resp.ID != 8 || string(resp.Result) != "[1]" {
		t.Errorf("reordered response parse = %+v (err %v)", resp, err)
	}
	if err := reg.parseRequest([]byte(`not json`), &req); err == nil {
		t.Error("garbage request parsed")
	}
	if err := parseResponse([]byte(`not json`), &resp); err == nil {
		t.Error("garbage response parsed")
	}
	// Frames encoding/json refuses: an overflowing id, bytes after the
	// closing brace, non-JSON params.
	for _, line := range []string{
		`{"id":18446744073709551616,"method":"status"}`,
		`{"id":1,"method":"status"}trailing`,
		`{"id":1,"method":"status","params":nope}`,
	} {
		if err := reg.parseRequest([]byte(line), &req); err == nil {
			t.Errorf("parseRequest(%s) = %+v, want refused", line, req)
		}
	}
	for _, line := range []string{`{"id":18446744073709551616}`, `{"id":1}trailing`} {
		if err := parseResponse([]byte(line), &resp); err == nil {
			t.Errorf("parseResponse(%s) = %+v, want refused", line, resp)
		}
	}
}

// FuzzWireFrames holds the hand-rolled codec to encoding/json. Decoding,
// every line must be accepted or refused by parseRequest exactly when
// json.Unmarshal accepts or refuses it, with the same id, method and
// params; parseResponse the same, except that it does not check a result
// payload, so a frame it accepts with a non-JSON result is skipped.
// Encoding, appendRequest and appendResponse must be byte-equal to
// json.Marshal plus a newline, for arbitrary strings and compact payloads.
func FuzzWireFrames(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "wire", "*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("wire goldens: %v (%d files)", err, len(goldens))
	}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			if req, ok := strings.CutPrefix(line, "> "); ok {
				f.Add([]byte(req), uint64(i))
			}
		}
	}
	// Frames the fast path once served although encoding/json refuses them.
	f.Add([]byte(`{"id":18446744073709551616,"method":"status"}`), uint64(0))
	f.Add([]byte(`{"id":1,"method":"status"}trailing`), uint64(1))
	f.Add([]byte(`{"id":1,"method":"compose","params":nope}`), uint64(2))

	reg := registry{}
	for _, name := range []string{MethodStatus, MethodCompose, MethodSlice} {
		reg.add(&method{name: name})
	}
	f.Fuzz(func(t *testing.T, line []byte, id uint64) {
		var got call
		gerr := reg.parseRequest(line, &got)
		var req Request
		werr := json.Unmarshal(line, &req)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("request %q: parseRequest err %v, encoding/json err %v", line, gerr, werr)
		}
		if gerr == nil {
			name := got.name
			if got.m != nil {
				name = got.m.name
			}
			if got.id != req.ID || name != req.Method || !bytes.Equal(got.params, req.Params) {
				t.Fatalf("request %q: parseRequest {%d %q %q}, encoding/json {%d %q %q}",
					line, got.id, name, got.params, req.ID, req.Method, req.Params)
			}
		}

		var gresp Response
		gerr = parseResponse(line, &gresp)
		if gerr != nil || len(gresp.Result) == 0 || json.Valid(gresp.Result) {
			var resp Response
			werr = json.Unmarshal(line, &resp)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("response %q: parseResponse err %v, encoding/json err %v", line, gerr, werr)
			}
			if gerr == nil && (gresp.ID != resp.ID || gresp.Error != resp.Error || !bytes.Equal(gresp.Result, resp.Result)) {
				t.Fatalf("response %q: parseResponse %+v, encoding/json %+v", line, gresp, resp)
			}
		}

		// A compact payload as encoding/json re-emits it: the line itself
		// when it is JSON, else the line as a JSON string.
		payload, err := json.Marshal(string(line))
		if err != nil {
			t.Fatal(err)
		}
		if json.Valid(line) {
			var compact, escaped bytes.Buffer
			if err := json.Compact(&compact, line); err != nil {
				t.Fatal(err)
			}
			json.HTMLEscape(&escaped, compact.Bytes())
			payload = escaped.Bytes()
		}
		s := string(line)
		for _, r := range []Request{{ID: id, Method: s}, {ID: id, Method: s, Params: payload}} {
			want, err := json.Marshal(&r)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendRequest(nil, &r); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("appendRequest(%+v) = %q, encoding/json %q", r, got, want)
			}
		}
		for _, r := range []Response{{ID: id}, {ID: id, Error: s}, {ID: id, Result: payload}, {ID: id, Error: s, Result: payload}} {
			want, err := json.Marshal(&r)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendResponse(nil, &r); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("appendResponse(%+v) = %q, encoding/json %q", r, got, want)
			}
		}
	})
}
