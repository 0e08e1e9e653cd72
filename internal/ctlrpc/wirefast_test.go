package ctlrpc

import (
	"bytes"
	"encoding/json"
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
}
