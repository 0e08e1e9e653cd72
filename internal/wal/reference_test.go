package wal

// Reference bodies for the fleet record codec and the segment scanner. The
// JSON record codec is what the log wrote before binary records; it stays
// here as the differential oracle: every entry the binary codec round-trips
// must decode to what a JSON round trip gave, nil and empty included,
// because FleetState.Encode (and the digest over it) tells them apart. The
// scheduler's and the fabric server's codecs have their oracles beside
// them, in internal/sched and internal/ctlrpc.

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
	"lightwave/internal/walrec"
)

func jsonDecodeFleet(p []byte) (fleet.JournalEntry, error) {
	var e fleet.JournalEntry
	if err := json.Unmarshal(p, &e); err != nil {
		return fleet.JournalEntry{}, fmt.Errorf("wal: fleet record: %w", err)
	}
	return e, nil
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
	e := fleet.JournalEntry{Op: fleet.JournalOps[int(s.byte())%len(fleet.JournalOps)], Pod: s.string()}
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

// seedPayloads are one record of every fleet op, as the encoder writes
// them, one of every other section's op as its owner writes it (a foreign
// payload the fleet decoder must refuse cleanly), and a JSON-era payload.
func seedPayloads() [][]byte {
	in := slice("train", 0, 1, 2, 3)
	empty := fleet.SliceIntent{Name: "e", Shape: topo.Shape{X: 4, Y: 4, Z: 4}, Cubes: []int{}}
	var out [][]byte
	add := func(b []byte, err error) { out = append(out, mustEncode(b, err)) }
	for _, op := range fleet.JournalOps {
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
	for _, input := range []func(*sched.Scheduler) error{
		func(s *sched.Scheduler) error {
			_, _, err := s.Submit(sched.JobSpec{Cubes: 8, DurationSeconds: 3600})
			return err
		},
		func(s *sched.Scheduler) error { return s.AdvanceTo(1234.5) },
		func(s *sched.Scheduler) error { return s.FailCube("pod0", 5) },
		func(s *sched.Scheduler) error { s.FailCube("pod0", 5); return s.RepairCube("pod0", 5) },
		func(s *sched.Scheduler) error { return s.SetPodDown("pod0", true) },
		func(s *sched.Scheduler) error { s.StartMeasurement(); return nil },
	} {
		out = append(out, schedRecord(input))
	}
	add(encodeCommand(Command{Method: "ensure", Params: json.RawMessage(`{"name":"s1","shape":[4,4,8],"cubes":[0,1]}`)}))
	add(encodeCommand(Command{Method: "status"}))
	return append(out, []byte(`{"op":"add-pod","pod":"pod0"}`))
}

// TestEveryJournalOpHasCode reads the JournalOp constants out of the fleet
// sources: one missing from fleet.JournalOps would make every append of
// that op fail at run time.
func TestEveryJournalOpHasCode(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "fleet", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fleet sources: %v, %v", files, err)
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
					if _, err := walrec.OpCode(fleet.JournalOps, fleet.JournalOp(op)); err != nil {
						t.Errorf("fleet op %q: %v", op, err)
					}
					seen++
				}
			}
		}
	}
	if seen == 0 {
		t.Error("found no fleet.JournalOp constants")
	}
}

// FuzzRecordCodec runs every input both ways. As a payload it goes through
// the fleet decoder, which must not panic, must allocate within a fixed
// multiple of its length (a decoded SliceIntent is 64 B, its shortest
// encoding 5 B), and whatever it accepts must re-encode to a fixed point.
// As a generator it yields one entry, which must decode to itself and to
// what the JSON codec made of it.
func FuzzRecordCodec(f *testing.F) {
	for _, p := range seedPayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b1 []byte
		var err error
		if n, limit := allocated(func() { b1, err = reencode(data) }), 16*uint64(len(data))+1024; n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err == nil {
			if b2, err := reencode(b1); err != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("re-encoding %x gave %x, %v", b1, b2, err)
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
	})
}

// reencode decodes p as a fleet record and encodes the result.
func reencode(p []byte) ([]byte, error) {
	e, err := decodeFleet(p)
	if err != nil {
		return nil, err
	}
	return encodeFleet(e)
}

// FuzzSegmentScan opens a log whose only segment holds arbitrary bytes. It
// must recover exactly the longest valid frame prefix, truncate the rest,
// and append the next record at the next LSN, which a second open finds.
func FuzzSegmentScan(f *testing.F) {
	// Short seeds: minimizing an input reruns two opens per candidate.
	seg := appendFrame(nil, RecordFleet, mustEncode(encodeFleet(fleet.JournalEntry{Op: fleet.OpAddPod, Pod: "pod0"})))
	seg = appendFrame(seg, RecordSched, schedRecord(func(s *sched.Scheduler) error { return s.AdvanceTo(60) }))
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
