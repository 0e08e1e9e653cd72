// Typed record codecs. Every log record carries a one-byte type tag so
// replay can dispatch without sniffing payloads, and every payload is a
// versioned binary encoding of its journal entry:
//
//	version byte (recordV1) | fields in declaration order
//
// Integers are varints (zigzag for signed ones); strings and byte strings
// are a uvarint length and the bytes; floats are the eight little-endian
// bytes of math.Float64bits, so a replayed virtual time is bit-exact; ops
// are one byte from a fixed enum; booleans and the presence byte in front
// of a pointer field are one byte, 0 or 1. Nil and empty stay apart wherever
// a JSON round trip kept them apart: SliceIntent.Cubes stores its length
// plus one, 0 meaning nil, because FleetState.Encode writes "Cubes":null and
// "Cubes":[] differently and the digest over it would move. Every length
// and count is checked against the bytes left before anything is allocated.
//
// The payloads are binary because a cold restart decodes every record since
// the last snapshot before any intent can change, so decode cost is the
// restart window (DESIGN.md §14 has the measurement). A payload whose
// version byte is unknown comes from a state directory written before
// binary records (a JSON payload starts with '{'); OpenStore refuses it
// instead of skipping it, which would boot an empty intent store.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"lightwave/internal/fleet"
	"lightwave/internal/sched"
)

// RecordType tags a log record's payload encoding.
type RecordType uint8

const (
	// RecordFleet is a fleet.JournalEntry: an intent-store mutation or a
	// quarantine/recovery decision.
	RecordFleet RecordType = 1
	// RecordSched is a sched.JournalEntry: one scheduler input, replayed
	// through the deterministic scheduler to rebuild placement state.
	RecordSched RecordType = 2
	// RecordCommand is a raw ctlrpc command (method + params) journaled
	// by the per-fabric server once its handler ran, whatever its verdict:
	// a refused call may still have changed the fabric, and replay repeats
	// both.
	RecordCommand RecordType = 3

	maxRecordType = RecordCommand
)

// recordV1 is the leading byte of every payload this build writes.
const recordV1 = 1

// sliceIntentMinBytes is the shortest encoded SliceIntent: empty name,
// three one-byte shape varints and a nil cube list.
const sliceIntentMinBytes = 5

// errVersion marks a payload whose version byte this build does not know.
var errVersion = errors.New("unknown payload version")

// Command is a journaled control-plane RPC, replayed verbatim against the
// fabric server on recovery. The log record stores Params as raw bytes.
type Command struct {
	Method string
	Params json.RawMessage
}

// The op enums: a record stores an op's index here, so fleet and sched keep
// their lists append-only. Index 0 is the empty op.
var (
	fleetOps = append([]fleet.JournalOp{""}, fleet.JournalOps...)
	schedOps = append([]sched.JournalOp{""}, sched.JournalOps...)
)

// opCode is op's index in ops; index 0, the empty op, is never written.
func opCode[T comparable](ops []T, op T) (byte, error) {
	if i := slices.Index(ops, op); i > 0 {
		return byte(i), nil
	}
	return 0, fmt.Errorf("unknown op %v", op)
}

// encodeFleet serializes a fleet journal entry.
func encodeFleet(e fleet.JournalEntry) ([]byte, error) {
	op, err := opCode(fleetOps, e.Op)
	if err != nil {
		return nil, fmt.Errorf("wal: fleet record: %w", err)
	}
	b := make([]byte, 0, 64)
	b = append(b, recordV1, op)
	b = appendString(b, e.Pod)
	b = appendBool(b, e.Slice != nil)
	if e.Slice != nil {
		b = appendSliceIntent(b, *e.Slice)
	}
	b = appendString(b, e.Name)
	b = binary.AppendUvarint(b, uint64(len(e.Slices)))
	for _, in := range e.Slices {
		b = appendSliceIntent(b, in)
	}
	b = binary.AppendVarint(b, int64(e.OCS))
	return appendString(b, e.Detail), nil
}

// decodeFleet parses a RecordFleet payload. An empty Slices list decodes
// as nil, as it did through JSON's omitempty.
func decodeFleet(p []byte) (fleet.JournalEntry, error) {
	d, err := newDecoder(p)
	var e fleet.JournalEntry
	if err == nil {
		e.Op = fleetOps[d.op(len(fleetOps))]
		e.Pod = d.string()
		if d.bool() {
			in := d.sliceIntent()
			e.Slice = &in
		}
		e.Name = d.string()
		if n := d.count(sliceIntentMinBytes); n > 0 {
			e.Slices = make([]fleet.SliceIntent, n)
			for i := range e.Slices {
				e.Slices[i] = d.sliceIntent()
			}
		}
		e.OCS = d.int()
		e.Detail = d.string()
		err = d.end()
	}
	if err != nil {
		return fleet.JournalEntry{}, fmt.Errorf("wal: fleet record: %w", err)
	}
	return e, nil
}

// encodeSched serializes a scheduler journal entry.
func encodeSched(e sched.JournalEntry) ([]byte, error) {
	op, err := opCode(schedOps, e.Op)
	if err != nil {
		return nil, fmt.Errorf("wal: sched record: %w", err)
	}
	b := make([]byte, 0, 32)
	b = append(b, recordV1, op)
	b = appendBool(b, e.Spec != nil)
	if e.Spec != nil {
		b = binary.AppendVarint(b, int64(e.Spec.Cubes))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Spec.DurationSeconds))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.T))
	b = appendString(b, e.Pod)
	b = binary.AppendVarint(b, int64(e.Cube))
	return appendBool(b, e.Down), nil
}

// decodeSched parses a RecordSched payload.
func decodeSched(p []byte) (sched.JournalEntry, error) {
	d, err := newDecoder(p)
	var e sched.JournalEntry
	if err == nil {
		e.Op = schedOps[d.op(len(schedOps))]
		if d.bool() {
			e.Spec = &sched.JobSpec{Cubes: d.int(), DurationSeconds: d.float64()}
		}
		e.T = d.float64()
		e.Pod = d.string()
		e.Cube = d.int()
		e.Down = d.bool()
		err = d.end()
	}
	if err != nil {
		return sched.JournalEntry{}, fmt.Errorf("wal: sched record: %w", err)
	}
	return e, nil
}

// encodeCommand serializes a journaled RPC command.
func encodeCommand(c Command) ([]byte, error) {
	if c.Method == "" {
		return nil, errors.New("wal: command record: empty method")
	}
	b := make([]byte, 0, 2+len(c.Method)+binary.MaxVarintLen64+len(c.Params))
	b = append(b, recordV1)
	b = appendString(b, c.Method)
	b = binary.AppendUvarint(b, uint64(len(c.Params)))
	return append(b, c.Params...), nil
}

// decodeCommand parses a RecordCommand payload. Empty params decode as
// nil, as they did through JSON's omitempty.
func decodeCommand(p []byte) (Command, error) {
	d, err := newDecoder(p)
	var c Command
	if err == nil {
		c.Method = d.string()
		if raw := d.bytes(); len(raw) > 0 {
			c.Params = append(json.RawMessage(nil), raw...)
		}
		err = d.end()
		if err == nil && c.Method == "" {
			err = errors.New("empty method")
		}
	}
	if err != nil {
		return Command{}, fmt.Errorf("wal: command record: %w", err)
	}
	return c, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendSliceIntent(b []byte, in fleet.SliceIntent) []byte {
	b = appendString(b, in.Name)
	b = binary.AppendVarint(b, int64(in.Shape.X))
	b = binary.AppendVarint(b, int64(in.Shape.Y))
	b = binary.AppendVarint(b, int64(in.Shape.Z))
	if in.Cubes == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(in.Cubes))+1)
	for _, c := range in.Cubes {
		b = binary.AppendVarint(b, int64(c))
	}
	return b
}

// decoder reads one payload. The first failure sticks: later reads return
// zero values, and the caller checks end once.
type decoder struct {
	b   []byte
	err error
}

// newDecoder checks the version byte and positions after it.
func newDecoder(p []byte) (decoder, error) {
	if len(p) == 0 {
		return decoder{}, errors.New("empty payload")
	}
	if p[0] != recordV1 {
		return decoder{}, fmt.Errorf("%w %#02x", errVersion, p[0])
	}
	return decoder{b: p[1:]}, nil
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("malformed %s", what)
	}
	d.b = nil
}

// end reports the first failure, or trailing bytes after the last field.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// op reads an enum index in [1, n); a failure yields index 0, whose table
// entry is the empty op.
func (d *decoder) op(n int) int {
	v := int(d.byte())
	if v == 0 || v >= n {
		d.fail("op")
		return 0
	}
	return v
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bool")
	return false
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) float64() float64 {
	if len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// bytes returns a length-prefixed byte string aliasing the payload; a
// caller that keeps it copies it.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("length")
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) string() string { return string(d.bytes()) }

// count reads an element count, refusing one that the bytes left could
// not hold at minBytes per element.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail("count")
		return 0
	}
	return int(n)
}

func (d *decoder) sliceIntent() fleet.SliceIntent {
	in := fleet.SliceIntent{Name: d.string()}
	in.Shape.X, in.Shape.Y, in.Shape.Z = d.int(), d.int(), d.int()
	n := d.uvarint() // length plus one; 0 is nil
	if n == 0 {
		return in
	}
	if n-1 > uint64(len(d.b)) {
		d.fail("count")
		return in
	}
	in.Cubes = make([]int, n-1)
	for i := range in.Cubes {
		in.Cubes[i] = d.int()
	}
	return in
}
