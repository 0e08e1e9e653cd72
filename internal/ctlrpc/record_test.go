package ctlrpc

// The journaled-command record codec against the JSON codec the log wrote
// before binary records, kept here as the differential oracle.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"lightwave/internal/walrec"
)

// jsonCommand is a command as the JSON codec wrote it.
type jsonCommand struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

// fuzzCommand turns fuzz bytes into a command. isJSON reports whether the
// params are absent or compact JSON, which the oracle reproduces byte for
// byte; other params are raw bytes, which the binary codec keeps as they
// came and JSON compacts or refuses.
func fuzzCommand(data []byte) (c jsonCommand, isJSON bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	take := func(n int) []byte {
		n = min(n, len(data))
		v := data[:n]
		data = data[n:]
		return v
	}
	// Valid UTF-8: JSON rewrites invalid bytes, the binary codec keeps
	// them, and the server journals only methods that arrived as JSON.
	str := func() string { return strings.ToValidUTF8(string(take(int(next()%12))), "?") }
	c.Method = "m" + str()
	switch next() % 3 {
	case 1:
		c.Params, _ = json.Marshal(str())
	case 2:
		c.Params = append(json.RawMessage(nil), take(int(next()%16))...)
		return c, false
	}
	return c, true
}

// allocated reports the heap bytes f allocates: the least of three runs,
// since the fuzzing engine allocates on goroutines of its own.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzRecordCodec runs every input both ways. As a payload it goes
// through the decoder, which must not panic, must allocate within a fixed
// multiple of its length, and whatever it accepts must re-encode to a
// fixed point; what it refuses is malformed or, JSON-era, of an unknown
// version. As a generator it yields one command, which must decode to
// itself and, with JSON params, to what the JSON codec made of it.
func FuzzRecordCodec(f *testing.F) {
	f.Add(encodeCommand(MethodEnsure, json.RawMessage(`{"name":"s1","shape":[4,4,8],"cubes":[0,1]}`)))
	f.Add(encodeCommand(MethodStatus, nil))
	f.Add([]byte(`{"method":"install-cube","params":{"cube":12}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b1 []byte
		var err error
		reencode := func(p []byte) ([]byte, error) {
			m, params, err := decodeCommand(p)
			return encodeCommand(m, params), err
		}
		if n, limit := allocated(func() { b1, err = reencode(data) }), 16*uint64(len(data))+1024; n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err == nil {
			if b2, err := reencode(b1); err != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("re-encoding %x gave %x, %v", b1, b2, err)
			}
		} else if !errors.Is(err, walrec.ErrMalformed) && !errors.Is(err, walrec.ErrVersion) {
			t.Fatalf("decoding %x: %v is neither malformed nor of an unknown version", data, err)
		}

		c, isJSON := fuzzCommand(data)
		m, params, err := decodeCommand(encodeCommand(c.Method, c.Params))
		if err != nil || m != c.Method || !bytes.Equal(params, c.Params) || (params == nil) != (len(c.Params) == 0) {
			t.Fatalf("command %+v decoded as %q %q, %v", c, m, params, err)
		}
		if !isJSON {
			return
		}
		var want jsonCommand
		if j, err := json.Marshal(c); err != nil || json.Unmarshal(j, &want) != nil || want.Method != m || !bytes.Equal(want.Params, params) {
			t.Fatalf("command %+v: binary gave %q %q, JSON %+v (%v)", c, m, params, want, err)
		}
	})
}
