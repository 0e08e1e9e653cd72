package ctlrpc

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// Hand-rolled encode/decode for the two wire frames. The protocol is
// NDJSON, but both frame types are tiny fixed-shape envelopes around an
// opaque result/params payload, and at fleet-scale request rates the
// generic encoding/json machinery dominates the control plane's CPU
// profile. Encoding appends the fields directly (the payload is already
// marshaled JSON); decoding takes a fast path through the envelope when
// the fields arrive in the canonical order both our encoder and
// encoding/json produce, and falls back to encoding/json for anything
// else. A request the fast path claims is one encoding/json accepts, with
// the same id, method and params (FuzzWireFrames). A response's result
// payload is not checked: a caller that decodes it refuses non-JSON there.

// appendJSONString appends s as a JSON string literal. Strings needing
// escapes take the encoding/json path.
//
//lwlint:hotpath
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			//lwlint:ignore hotalloc cold fallback: strings needing escapes are rare on the wire, and correctness beats the box here
			quoted, err := json.Marshal(s)
			if err != nil {
				// A Go string always marshals; keep the frame well-formed
				// regardless.
				return append(dst, `""`...)
			}
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendRequest appends req as one newline-terminated wire line.
//
//lwlint:hotpath
func appendRequest(dst []byte, req *Request) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, req.ID, 10)
	dst = append(dst, `,"method":`...)
	dst = appendJSONString(dst, req.Method)
	if len(req.Params) != 0 {
		dst = append(dst, `,"params":`...)
		dst = append(dst, req.Params...)
	}
	return append(dst, '}', '\n')
}

// appendResponse appends resp as one newline-terminated wire line.
//
//lwlint:hotpath
func appendResponse(dst []byte, resp *Response) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, resp.ID, 10)
	if resp.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, resp.Error)
	}
	if len(resp.Result) != 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, resp.Result...)
	}
	return append(dst, '}', '\n')
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\r\n"

// eatUint consumes a decimal literal at line[i:]. It refuses (0, false) a
// literal that is no JSON number or overflows a uint64, as encoding/json
// does.
//
//lwlint:hotpath
func eatUint(line []byte, i int) (uint64, int, bool) {
	var v uint64
	start := i
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		d := uint64(line[i] - '0')
		if v > (math.MaxUint64-d)/10 || i > start && line[start] == '0' {
			return 0, i, false
		}
		v = v*10 + d
		i++
	}
	return v, i, i > start
}

// closes reports whether rest is a closing brace and nothing after it but
// whitespace.
//
//lwlint:hotpath
func closes(rest []byte) bool {
	return len(rest) > 0 && rest[0] == '}' && len(bytes.TrimLeft(rest[1:], jsonSpace)) == 0
}

// tail trims one closing brace plus surrounding whitespace off the end of
// a frame, returning the payload span without its surrounding whitespace
// and whether the frame ended cleanly.
//
//lwlint:hotpath
func tail(line []byte, i int) ([]byte, bool) {
	rest := bytes.TrimRight(line[i:], jsonSpace)
	if len(rest) == 0 || rest[len(rest)-1] != '}' {
		return nil, false
	}
	return bytes.Trim(rest[:len(rest)-1], jsonSpace), true
}

// parseResponse decodes one response line. The returned Result aliases
// line on the fast path; callers must copy it if it outlives the buffer.
//
//lwlint:hotpath
func parseResponse(line []byte, resp *Response) error {
	// Fast path: {"id":N} / {"id":N,"result":...}; anything else —
	// reordered fields, an error string needing unescaping — falls back.
	if rest, ok := bytes.CutPrefix(line, []byte(`{"id":`)); ok {
		id, i, ok := eatUint(rest, 0)
		if ok {
			switch {
			case closes(rest[i:]):
				*resp = Response{ID: id}
				return nil
			case bytes.HasPrefix(rest[i:], []byte(`,"result":`)):
				if payload, ok := tail(rest, i+len(`,"result":`)); ok && len(payload) != 0 {
					*resp = Response{ID: id, Result: payload}
					return nil
				}
			}
		}
	}
	*resp = Response{}
	return json.Unmarshal(line, resp)
}

// parseRequest decodes one request line and binds it to its registry
// entry. The returned params alias line on the fast path; callers must
// copy what outlives the buffer.
//
//lwlint:hotpath
func (r registry) parseRequest(line []byte, c *call) error {
	if rest, ok := bytes.CutPrefix(line, []byte(`{"id":`)); ok {
		id, i, ok := eatUint(rest, 0)
		if ok && bytes.HasPrefix(rest[i:], []byte(`,"method":"`)) {
			i += len(`,"method":"`)
			j := i
			// Escapes, control bytes and non-ASCII (which encoding/json
			// may rewrite) fall back.
			for j < len(rest) && rest[j] != '"' && rest[j] != '\\' && rest[j] >= 0x20 && rest[j] < 0x80 {
				j++
			}
			if j < len(rest) && rest[j] == '"' {
				switch {
				case closes(rest[j+1:]):
					r.bind(c, id, rest[i:j], nil)
					return nil
				case bytes.HasPrefix(rest[j+1:], []byte(`,"params":`)):
					if payload, ok := tail(rest, j+1+len(`,"params":`)); ok && json.Valid(payload) {
						r.bind(c, id, rest[i:j], payload)
						return nil
					}
				}
			}
		}
	}
	return r.parseRequestSlow(line, c)
}

// bind resolves a method token against the registry. The map lookup keyed
// by the token's bytes does not allocate, so a known method costs no
// string at all; an unknown one keeps a copy of its name for the error.
//
//lwlint:hotpath
func (r registry) bind(c *call, id uint64, method, params []byte) {
	*c = call{id: id, m: r[string(method)], params: params}
	if c.m == nil {
		c.name = string(method)
	}
}

// parseRequestSlow is the encoding/json fallback for frames the fast path
// cannot claim: reordered fields, escaped method names, whitespace. It is
// its own function so the escaping Request is only allocated here.
func (r registry) parseRequestSlow(line []byte, c *call) error {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		*c = call{}
		return err
	}
	*c = call{id: req.ID, m: r[req.Method], name: req.Method, params: req.Params}
	return nil
}
