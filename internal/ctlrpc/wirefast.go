package ctlrpc

import (
	"bytes"
	"encoding/json"
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
// else, so interoperability is unchanged.

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

// eatUint consumes a decimal literal at line[i:].
//
//lwlint:hotpath
func eatUint(line []byte, i int) (uint64, int, bool) {
	var v uint64
	start := i
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		v = v*10 + uint64(line[i]-'0')
		i++
	}
	return v, i, i > start
}

// tail trims one closing brace plus surrounding whitespace off the end of
// a frame, returning the payload span and whether the frame ended cleanly.
//
//lwlint:hotpath
func tail(line []byte, i int) ([]byte, bool) {
	rest := bytes.TrimRight(line[i:], " \t\r\n")
	if len(rest) == 0 || rest[len(rest)-1] != '}' {
		return nil, false
	}
	return rest[:len(rest)-1], true
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
			case i < len(rest) && rest[i] == '}':
				*resp = Response{ID: id}
				return nil
			case bytes.HasPrefix(rest[i:], []byte(`,"result":`)):
				if payload, ok := tail(rest, i+len(`,"result":`)); ok {
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
			for j < len(rest) && rest[j] != '"' && rest[j] != '\\' {
				j++
			}
			if j < len(rest) && rest[j] == '"' {
				switch {
				case j+1 < len(rest) && rest[j+1] == '}':
					r.bind(c, id, rest[i:j], nil)
					return nil
				case bytes.HasPrefix(rest[j+1:], []byte(`,"params":`)):
					if payload, ok := tail(rest, j+1+len(`,"params":`)); ok {
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
