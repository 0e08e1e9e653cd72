package sched

// The scheduler's record codec against the JSON codec the log wrote
// before binary records, kept here as the differential oracle: every
// entry the binary codec round-trips must decode to what a JSON round trip
// gave, and times bit for bit.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// entrySource turns fuzz bytes into a journal entry; it reads zeros once
// the bytes run out.
type entrySource struct{ b []byte }

func (s *entrySource) take(n int) []byte {
	n = min(n, len(s.b))
	v := s.b[:n]
	s.b = s.b[n:]
	return v
}

func (s *entrySource) byte() byte {
	if v := s.take(1); len(v) == 1 {
		return v[0]
	}
	return 0
}

func (s *entrySource) u64() uint64 {
	var b [8]byte
	copy(b[:], s.take(8))
	return binary.LittleEndian.Uint64(b[:])
}

func (s *entrySource) int() int {
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
func (s *entrySource) string() string {
	return strings.ToValidUTF8(string(s.take(int(s.byte()%12))), "?")
}

func (s *entrySource) entry() JournalEntry {
	e := JournalEntry{Op: JournalOps[int(s.byte())%len(JournalOps)]}
	if s.byte()%2 == 1 {
		e.Spec = &JobSpec{Cubes: s.int(), DurationSeconds: math.Float64frombits(s.u64())}
	}
	e.T = math.Float64frombits(s.u64())
	e.Pod = s.string()
	e.Cube = s.int()
	e.Down = s.byte()%2 == 1
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

// TestEveryJournalOpHasCode reads the JournalOp constants out of the
// package's sources: one missing from JournalOps would make every append
// of that op fail at run time.
func TestEveryJournalOpHasCode(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("sources: %v, %v", files, err)
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
					if _, err := encodeEntry(JournalEntry{Op: JournalOp(op)}); err != nil {
						t.Errorf("op %q: %v", op, err)
					}
					seen++
				}
			}
		}
	}
	if seen == 0 {
		t.Error("found no JournalOp constants")
	}
}

// FuzzRecordCodec runs every input both ways. As a payload it goes
// through the decoder, which must not panic, must allocate within a fixed
// multiple of its length, and whatever it accepts must re-encode to a
// fixed point. As a generator it yields one entry, which must decode to
// itself — times bit for bit — and to what the JSON codec made of it.
func FuzzRecordCodec(f *testing.F) {
	for _, op := range JournalOps {
		e := JournalEntry{Op: op, Pod: "pod2", Cube: 5, T: 1234.5}
		if op == OpSubmit {
			e.Spec = &JobSpec{Cubes: 8, DurationSeconds: 3600}
		}
		e.Down = op == OpPodDown
		b, err := encodeEntry(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"op":"advance","t":60}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b1 []byte
		var err error
		reencode := func(p []byte) ([]byte, error) {
			e, err := decodeEntry(p)
			if err != nil {
				return nil, err
			}
			return encodeEntry(e)
		}
		if n, limit := allocated(func() { b1, err = reencode(data) }), 16*uint64(len(data))+1024; n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err == nil {
			if b2, err := reencode(b1); err != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("re-encoding %x gave %x, %v", b1, b2, err)
			}
		}

		e := (&entrySource{b: data}).entry()
		b, err := encodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeEntry(b)
		if err != nil {
			t.Fatalf("decodeEntry(encodeEntry(%+v)): %v", e, err)
		}
		if math.Float64bits(got.T) != math.Float64bits(e.T) || (e.Spec != nil) != (got.Spec != nil) ||
			e.Spec != nil && math.Float64bits(got.Spec.DurationSeconds) != math.Float64bits(e.Spec.DurationSeconds) {
			t.Fatalf("entry %+v decoded as %+v: times not bit-exact", e, got)
		}
		// JSON cannot encode a NaN or infinite time; there is no oracle.
		if j, err := json.Marshal(e); err == nil {
			var want JournalEntry
			if err := json.Unmarshal(j, &want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("entry %+v: binary gave %+v, JSON %+v (%v)", e, got, want, err)
			}
		}
	})
}
