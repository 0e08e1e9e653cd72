package sched

import (
	"encoding/binary"
	"fmt"
	"math"

	"lightwave/internal/walrec"
)

// encodeEntry serializes a journal entry in the log's record format
// (internal/walrec): op, spec, time, pod, cube, down.
func encodeEntry(e JournalEntry) ([]byte, error) {
	op, err := walrec.OpCode(JournalOps, e.Op)
	if err != nil {
		return nil, fmt.Errorf("sched: journal record: %w", err)
	}
	b := make([]byte, 0, 32)
	b = append(b, walrec.V1, op)
	b = walrec.AppendBool(b, e.Spec != nil)
	if e.Spec != nil {
		b = binary.AppendVarint(b, int64(e.Spec.Cubes))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Spec.DurationSeconds))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.T))
	b = walrec.AppendString(b, e.Pod)
	b = binary.AppendVarint(b, int64(e.Cube))
	return walrec.AppendBool(b, e.Down), nil
}

// decodeEntry parses a journal record.
func decodeEntry(p []byte) (JournalEntry, error) {
	d := walrec.NewDecoder(p)
	e := JournalEntry{Op: walrec.DecodeOp(&d, JournalOps)}
	if d.Bool() {
		e.Spec = &JobSpec{Cubes: d.Int(), DurationSeconds: d.Float64()}
	}
	e.T = d.Float64()
	e.Pod = d.Text()
	e.Cube = d.Int()
	e.Down = d.Bool()
	if err := d.End(); err != nil {
		return JournalEntry{}, fmt.Errorf("sched: journal record: %w", err)
	}
	return e, nil
}
