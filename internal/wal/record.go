// Typed records: a one-byte type tag lets replay dispatch without sniffing
// payloads, and each payload is in internal/walrec's format. The fleet
// section's codec is here; the other owners keep theirs.
package wal

import (
	"encoding/binary"
	"fmt"

	"lightwave/internal/fleet"
	"lightwave/internal/walrec"
)

// RecordType tags a log record's payload encoding.
type RecordType uint8

const (
	// RecordFleet is a fleet.JournalEntry: an intent-store mutation or a
	// quarantine/recovery decision.
	RecordFleet RecordType = 1
	// RecordSched is one scheduler input, the scheduler's section
	// (snapshot key "sched").
	RecordSched RecordType = 2
	// RecordCommand is one RPC command lwfd's fabric server executed, its
	// section (snapshot key "fabric").
	RecordCommand RecordType = 3

	maxRecordType = RecordCommand
)

// sliceIntentMinBytes is the shortest encoded SliceIntent: empty name,
// three one-byte shape varints and a nil cube list.
const sliceIntentMinBytes = 5

// encodeFleet serializes a fleet journal entry.
func encodeFleet(e fleet.JournalEntry) ([]byte, error) {
	op, err := walrec.OpCode(fleet.JournalOps, e.Op)
	if err != nil {
		return nil, fmt.Errorf("wal: fleet record: %w", err)
	}
	b := make([]byte, 0, 64)
	b = append(b, walrec.V1, op)
	b = walrec.AppendString(b, e.Pod)
	b = walrec.AppendBool(b, e.Slice != nil)
	if e.Slice != nil {
		b = appendSliceIntent(b, *e.Slice)
	}
	b = walrec.AppendString(b, e.Name)
	b = binary.AppendUvarint(b, uint64(len(e.Slices)))
	for _, in := range e.Slices {
		b = appendSliceIntent(b, in)
	}
	b = binary.AppendVarint(b, int64(e.OCS))
	return walrec.AppendString(b, e.Detail), nil
}

// decodeFleet parses a RecordFleet payload. An empty Slices list decodes
// as nil, as it did through JSON's omitempty.
func decodeFleet(p []byte) (fleet.JournalEntry, error) {
	d := walrec.NewDecoder(p)
	e := fleet.JournalEntry{Op: walrec.DecodeOp(&d, fleet.JournalOps)}
	e.Pod = d.Text()
	if d.Bool() {
		in := decodeSliceIntent(&d, 0)
		e.Slice = &in
	}
	e.Name = d.Text()
	if n := d.Count(sliceIntentMinBytes, 0); n > 0 {
		e.Slices = make([]fleet.SliceIntent, n)
		for i := range e.Slices {
			e.Slices[i] = decodeSliceIntent(&d, sliceIntentMinBytes*(n-1-i))
		}
	}
	e.OCS = d.Int()
	e.Detail = d.Text()
	if err := d.End(); err != nil {
		return fleet.JournalEntry{}, fmt.Errorf("wal: fleet record: %w", err)
	}
	return e, nil
}

// appendSliceIntent stores Cubes as its length plus one, 0 meaning nil,
// because FleetState.Encode writes "Cubes":null and "Cubes":[] differently
// and the digest over it would move.
func appendSliceIntent(b []byte, in fleet.SliceIntent) []byte {
	b = walrec.AppendString(b, in.Name)
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

// decodeSliceIntent reads one SliceIntent, leaving reserve bytes for the
// intents after it: their preallocated list already counts those bytes.
func decodeSliceIntent(d *walrec.Decoder, reserve int) fleet.SliceIntent {
	in := fleet.SliceIntent{Name: d.Text()}
	in.Shape.X, in.Shape.Y, in.Shape.Z = d.Int(), d.Int(), d.Int()
	if n := d.Count(1, reserve); n > 0 {
		in.Cubes = make([]int, n-1)
		for i := range in.Cubes {
			in.Cubes[i] = d.Int()
		}
	}
	return in
}
