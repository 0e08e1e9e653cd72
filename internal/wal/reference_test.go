package wal

// Reference bodies for the record codec and the segment scanner. The JSON
// record codec is what the log wrote before binary records; it stays here
// as the differential oracle: every entry the binary codec round-trips must
// decode to what a JSON round trip gave, nil and empty included, because
// FleetState.Encode (and the digest over it) tells them apart.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/topo"
)

func jsonDecodeFleet(p []byte) (fleet.JournalEntry, error) {
	var e fleet.JournalEntry
	if err := json.Unmarshal(p, &e); err != nil {
		return fleet.JournalEntry{}, fmt.Errorf("wal: fleet record: %w", err)
	}
	return e, nil
}

func jsonDecodeSched(p []byte) (sched.JournalEntry, error) {
	var e sched.JournalEntry
	if err := json.Unmarshal(p, &e); err != nil {
		return sched.JournalEntry{}, fmt.Errorf("wal: sched record: %w", err)
	}
	return e, nil
}

// jsonCommand is Command as the JSON codec wrote it.
type jsonCommand struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

func jsonDecodeCommand(p []byte) (jsonCommand, error) {
	var c jsonCommand
	if err := json.Unmarshal(p, &c); err != nil {
		return jsonCommand{}, fmt.Errorf("wal: command record: %w", err)
	}
	if c.Method == "" {
		return jsonCommand{}, fmt.Errorf("wal: command record: empty method")
	}
	return c, nil
}

// jsonRoundTrip is what the JSON codec made of v on replay; ok is false
// when JSON cannot encode it at all (a NaN time, params that are not JSON).
func jsonRoundTrip[T any](v T, decode func([]byte) (T, error)) (T, bool) {
	b, err := json.Marshal(v)
	if err != nil {
		var zero T
		return zero, false
	}
	out, err := decode(b)
	return out, err == nil
}

// refFrames is the segment format read the slow way: the frames of the
// longest prefix of data whose length fields fit and whose CRCs match, and
// the byte length of that prefix.
func refFrames(data []byte) (frames [][]byte, valid int) {
	for {
		rest := data[valid:]
		if len(rest) < 8 {
			return frames, valid
		}
		n := uint64(binary.LittleEndian.Uint32(rest[0:4]))
		if n == 0 || n > MaxRecordBytes || n > uint64(len(rest)-8) {
			return frames, valid
		}
		body := rest[8 : 8+n]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return frames, valid
		}
		frames = append(frames, body)
		valid += 8 + int(n)
	}
}

// source turns fuzz bytes into journal entries; it reads zeros once the
// bytes run out.
type source struct{ b []byte }

func (s *source) take(n int) []byte {
	n = min(n, len(s.b))
	v := s.b[:n]
	s.b = s.b[n:]
	return v
}

func (s *source) byte() byte {
	if v := s.take(1); len(v) == 1 {
		return v[0]
	}
	return 0
}

func (s *source) u64() uint64 {
	var b [8]byte
	copy(b[:], s.take(8))
	return binary.LittleEndian.Uint64(b[:])
}

func (s *source) int() int {
	switch s.byte() % 4 {
	case 0:
		return 0
	case 3:
		return int(int64(s.u64()))
	}
	return int(int8(s.byte()))
}

// string is valid UTF-8: JSON rewrites invalid bytes, the binary codec
// keeps them, and callers only journal names that arrived as JSON.
func (s *source) string() string {
	return strings.ToValidUTF8(string(s.take(int(s.byte()%12))), "?")
}

func (s *source) ints() []int {
	switch s.byte() % 3 {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, s.byte()%6+1)
	for i := range out {
		out[i] = s.int()
	}
	return out
}

func (s *source) sliceIntent() fleet.SliceIntent {
	return fleet.SliceIntent{Name: s.string(),
		Shape: topo.Shape{X: s.int(), Y: s.int(), Z: s.int()}, Cubes: s.ints()}
}

func (s *source) fleetEntry() fleet.JournalEntry {
	e := fleet.JournalEntry{Op: fleetOps[1+int(s.byte())%(len(fleetOps)-1)], Pod: s.string()}
	if s.byte()%2 == 1 {
		in := s.sliceIntent()
		e.Slice = &in
	}
	e.Name = s.string()
	switch k := s.byte() % 4; k {
	case 0:
	case 1:
		e.Slices = []fleet.SliceIntent{}
	default:
		for i := 0; i < int(k); i++ {
			e.Slices = append(e.Slices, s.sliceIntent())
		}
	}
	e.OCS = s.int()
	e.Detail = s.string()
	return e
}

func (s *source) schedEntry() sched.JournalEntry {
	e := sched.JournalEntry{Op: schedOps[1+int(s.byte())%(len(schedOps)-1)]}
	if s.byte()%2 == 1 {
		e.Spec = &sched.JobSpec{Cubes: s.int(), DurationSeconds: math.Float64frombits(s.u64())}
	}
	e.T = math.Float64frombits(s.u64())
	e.Pod = s.string()
	e.Cube = s.int()
	e.Down = s.byte()%2 == 1
	return e
}

// command reports whether the params are absent or compact JSON, which the
// oracle reproduces byte for byte; other params are raw bytes, which the
// binary codec keeps as they came and JSON compacts or refuses.
func (s *source) command() (Command, bool) {
	c := Command{Method: "m" + s.string()}
	switch s.byte() % 3 {
	case 1:
		c.Params, _ = json.Marshal(s.string())
	case 2:
		c.Params = append(json.RawMessage(nil), s.take(int(s.byte()%16))...)
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

// mustEncode returns an encoder's payload for an entry only a bug can
// make it refuse.
func mustEncode(p []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return p
}

// seedPayloads are one record of every fleet and sched op and both command
// shapes, as the encoder writes them, plus a JSON-era payload.
func seedPayloads() [][]byte {
	in := slice("train", 0, 1, 2, 3)
	empty := fleet.SliceIntent{Name: "e", Shape: topo.Shape{X: 4, Y: 4, Z: 4}, Cubes: []int{}}
	var out [][]byte
	add := func(b []byte, err error) { out = append(out, mustEncode(b, err)) }
	for _, op := range fleetOps[1:] {
		e := fleet.JournalEntry{Op: op, Pod: "pod0"}
		switch op {
		case fleet.OpSetSlice:
			e.Slice = &in
		case fleet.OpRemoveSlice:
			e.Name = "train"
		case fleet.OpReplace:
			e.Slices = []fleet.SliceIntent{in, empty, slice("auto")}
		case fleet.OpDrainOCS, fleet.OpUndrainOCS:
			e.OCS = 47
		case fleet.OpQuarantine:
			e.Detail = "probe failed"
		}
		add(encodeFleet(e))
	}
	for _, op := range schedOps[1:] {
		e := sched.JournalEntry{Op: op, Pod: "pod2", Cube: 5, T: 1234.5}
		if op == sched.OpSubmit {
			e.Spec = &sched.JobSpec{Cubes: 8, DurationSeconds: 3600}
		}
		e.Down = op == sched.OpPodDown
		add(encodeSched(e))
	}
	add(encodeCommand(Command{Method: "ensure", Params: json.RawMessage(`{"name":"s1","shape":[4,4,8],"cubes":[0,1]}`)}))
	add(encodeCommand(Command{Method: "status"}))
	return append(out, []byte(`{"op":"add-pod","pod":"pod0"}`))
}

// TestEveryJournalOpHasCode reads the JournalOp constants out of the fleet
// and sched sources: one missing from its package's JournalOps would make
// every append of that op fail at run time.
func TestEveryJournalOpHasCode(t *testing.T) {
	for pkg, code := range map[string]func(string) error{
		"fleet": func(op string) error { _, err := opCode(fleetOps, fleet.JournalOp(op)); return err },
		"sched": func(op string) error { _, err := opCode(schedOps, sched.JournalOp(op)); return err },
	} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s sources: %v, %v", pkg, files, err)
		}
		seen := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "JournalOp" {
						continue
					}
					for _, v := range vs.Values {
						op, err := strconv.Unquote(v.(*ast.BasicLit).Value)
						if err != nil {
							t.Fatal(err)
						}
						if err := code(op); err != nil {
							t.Errorf("%s op %q: %v", pkg, op, err)
						}
						seen++
					}
				}
			}
		}
		if seen == 0 {
			t.Errorf("found no %s.JournalOp constants", pkg)
		}
	}
}

// FuzzRecordCodec runs every input both ways. As a payload it goes through
// all three decoders, which must not panic, must allocate within a fixed
// multiple of its length (a decoded SliceIntent is 64 B, its shortest
// encoding 5 B), and whatever they accept must re-encode to a fixed point.
// As a generator it yields one entry of each type, which must decode to
// itself — times bit for bit — and to what the JSON codec made of it.
func FuzzRecordCodec(f *testing.F) {
	for _, p := range seedPayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := 16*uint64(len(data)) + 1024
		for _, typ := range []RecordType{RecordFleet, RecordSched, RecordCommand} {
			var b1 []byte
			var err error
			if n := allocated(func() { b1, err = reencode(typ, data) }); n > limit {
				t.Fatalf("type %d: decoding %d bytes allocated %d", typ, len(data), n)
			}
			if err != nil {
				continue
			}
			if b2, err := reencode(typ, b1); err != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("type %d: re-encoding %x gave %x, %v", typ, b1, b2, err)
			}
		}

		src := &source{b: data}
		fe := src.fleetEntry()
		b, err := encodeFleet(fe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeFleet(b)
		if err != nil {
			t.Fatalf("decodeFleet(encodeFleet(%+v)): %v", fe, err)
		}
		if want, ok := jsonRoundTrip(fe, jsonDecodeFleet); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("fleet entry %+v: binary gave %+v, JSON %+v (ok=%t)", fe, got, want, ok)
		}

		se := src.schedEntry()
		if b, err = encodeSched(se); err != nil {
			t.Fatal(err)
		}
		gs, err := decodeSched(b)
		if err != nil {
			t.Fatalf("decodeSched(encodeSched(%+v)): %v", se, err)
		}
		if math.Float64bits(gs.T) != math.Float64bits(se.T) || (se.Spec != nil) != (gs.Spec != nil) ||
			se.Spec != nil && math.Float64bits(gs.Spec.DurationSeconds) != math.Float64bits(se.Spec.DurationSeconds) {
			t.Fatalf("sched entry %+v decoded as %+v: times not bit-exact", se, gs)
		}
		if want, ok := jsonRoundTrip(se, jsonDecodeSched); ok && !reflect.DeepEqual(gs, want) {
			t.Fatalf("sched entry %+v: binary gave %+v, JSON %+v", se, gs, want)
		}

		ce, isJSON := src.command()
		if b, err = encodeCommand(ce); err != nil {
			t.Fatal(err)
		}
		gc, err := decodeCommand(b)
		if err != nil || gc.Method != ce.Method || !bytes.Equal(gc.Params, ce.Params) || (gc.Params == nil) != (len(ce.Params) == 0) {
			t.Fatalf("command %+v decoded as %+v, %v", ce, gc, err)
		}
		if want, ok := jsonRoundTrip(jsonCommand(ce), jsonDecodeCommand); isJSON && (!ok || !reflect.DeepEqual(gc, Command(want))) {
			t.Fatalf("command %+v: binary gave %+v, JSON %+v", ce, gc, want)
		}
	})
}

// reencode decodes p as a record of type typ and encodes the result.
func reencode(typ RecordType, p []byte) ([]byte, error) {
	switch typ {
	case RecordFleet:
		e, err := decodeFleet(p)
		if err != nil {
			return nil, err
		}
		return encodeFleet(e)
	case RecordSched:
		e, err := decodeSched(p)
		if err != nil {
			return nil, err
		}
		return encodeSched(e)
	}
	c, err := decodeCommand(p)
	if err != nil {
		return nil, err
	}
	return encodeCommand(c)
}

// FuzzSegmentScan opens a log whose only segment holds arbitrary bytes. It
// must recover exactly the longest valid frame prefix, truncate the rest,
// and append the next record at the next LSN, which a second open finds.
func FuzzSegmentScan(f *testing.F) {
	// Short seeds: minimizing an input reruns two opens per candidate.
	seg := appendFrame(nil, RecordFleet, mustEncode(encodeFleet(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "pod0"})))
	seg = appendFrame(seg, RecordSched, mustEncode(encodeSched(sched.JournalEntry{Op: sched.OpAdvance, T: 60})))
	seg = appendFrame(seg, RecordCommand, mustEncode(encodeCommand(Command{Method: "status"})))
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		frames, valid := refFrames(data)
		l, rec, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		check := func(rec *Recovery, frames [][]byte) {
			t.Helper()
			if len(rec.Records) != len(frames) {
				t.Fatalf("recovered %d records, want %d", len(rec.Records), len(frames))
			}
			for i, r := range rec.Records {
				if r.LSN != uint64(i+1) || byte(r.Type) != frames[i][0] || !bytes.Equal(r.Payload, frames[i][1:]) {
					t.Fatalf("record %d = %d/%d/%x, want frame %x", i, r.LSN, r.Type, r.Payload, frames[i])
				}
			}
		}
		check(rec, frames)
		if rec.TruncatedBytes != int64(len(data)-valid) {
			t.Fatalf("truncated %d bytes, want %d", rec.TruncatedBytes, len(data)-valid)
		}
		lsn, err := l.Append(RecordFleet, []byte("next"))
		if err != nil || lsn != uint64(len(frames)+1) {
			t.Fatalf("append after recovery: lsn %d, %v; want %d", lsn, err, len(frames)+1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, rec2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		check(rec2, append(frames, append([]byte{byte(RecordFleet)}, "next"...)))
		if rec2.TruncatedBytes != 0 {
			t.Fatalf("second open truncated %d bytes", rec2.TruncatedBytes)
		}
	})
}
