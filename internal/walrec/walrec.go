// Package walrec is the binary record format every journal section
// writes its log payloads in. A payload is
//
//	version byte (V1) | fields in declaration order
//
// Integers are varints (zigzag for signed ones); strings and byte strings
// are a uvarint length and the bytes; floats are the eight little-endian
// bytes of math.Float64bits, so a replayed virtual time is bit-exact; ops
// are one byte from a fixed enum; booleans and the presence byte in front
// of a pointer field are one byte, 0 or 1. Every length and count is
// checked against the bytes left before anything is allocated. The
// payloads are binary because a cold restart decodes every record since
// the last snapshot before any intent can change, so decode cost is the
// restart window (DESIGN.md §14 has the measurement). A payload whose
// version byte is unknown comes from a state directory written before
// binary records (a JSON payload starts with '{'): ErrVersion, which the
// store refuses rather than skips. Any other refused payload is
// ErrMalformed, which the store counts and skips. The package imports
// nothing, so each section owner keeps its codec beside its types.
package walrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// V1 is the leading byte of every payload this build writes.
const V1 = 1

var (
	// ErrVersion marks a payload whose version byte this build does not
	// know.
	ErrVersion = errors.New("unknown payload version")
	// ErrMalformed marks a payload a decoder refused.
	ErrMalformed = errors.New("malformed")
)

// OpCode is op's position in ops, the owner's append-only op list, plus
// one: a record stores it as one byte, and 0 is never written.
func OpCode[T comparable](ops []T, op T) (byte, error) {
	if i := slices.Index(ops, op); i >= 0 {
		return byte(i + 1), nil
	}
	return 0, fmt.Errorf("unknown op %v", op)
}

// DecodeOp reads an op OpCode wrote; a failure yields the zero op.
func DecodeOp[T any](d *Decoder, ops []T) (op T) {
	if v := int(d.byte()); v >= 1 && v <= len(ops) {
		return ops[v-1]
	}
	d.fail("op")
	return op
}

// AppendString appends a uvarint length and s.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Decoder reads one payload. The first failure, an unknown version
// included, sticks: later reads return zero values, and the caller checks
// End once.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder checks the version byte and positions after it.
func NewDecoder(p []byte) Decoder {
	if len(p) == 0 {
		return Decoder{err: fmt.Errorf("%w: empty payload", ErrMalformed)}
	}
	if p[0] != V1 {
		return Decoder{err: fmt.Errorf("%w %#02x", ErrVersion, p[0])}
	}
	return Decoder{b: p[1:]}
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w %s", ErrMalformed, what)
	}
	d.b = nil
}

// Err reports the first failure so far.
func (d Decoder) Err() error { return d.err }

// End reports the first failure, or trailing bytes after the last field.
func (d *Decoder) End() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b))
	}
	return d.err
}

func (d *Decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads one byte, 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bool")
	return false
}

func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a zigzag varint that fits an int.
func (d *Decoder) Int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// Float64 reads eight little-endian bytes of math.Float64bits.
func (d *Decoder) Float64() float64 {
	if len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bytes returns a length-prefixed byte string aliasing the payload; a
// caller that keeps it copies it.
func (d *Decoder) Bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("length")
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Text reads a length-prefixed string.
func (d *Decoder) Text() string { return string(d.Bytes()) }

// Count reads an element count, refusing one the bytes left, less reserve
// for what follows, could not hold at minBytes per element.
func (d *Decoder) Count(minBytes, reserve int) int {
	n := d.uvarint()
	if n > uint64(max(len(d.b)-reserve, 0)/minBytes) {
		d.fail("count")
		return 0
	}
	return int(n)
}
