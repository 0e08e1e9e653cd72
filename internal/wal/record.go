// Typed record codecs. Every log record carries a one-byte type tag so
// replay can dispatch without sniffing payloads; payloads are JSON for the
// same reason the control protocol is JSON — debuggability beats density at
// control-plane rates, and the group-commit batching amortizes the bytes.
package wal

import (
	"encoding/json"
	"fmt"

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
	// by the per-fabric server after successful execution.
	RecordCommand RecordType = 3

	maxRecordType = RecordCommand
)

// Command is a journaled control-plane RPC, replayed verbatim against the
// fabric server on recovery.
type Command struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

// EncodeFleet serializes a fleet journal entry.
func EncodeFleet(e fleet.JournalEntry) ([]byte, error) { return json.Marshal(e) }

// DecodeFleet parses a RecordFleet payload.
func DecodeFleet(p []byte) (fleet.JournalEntry, error) {
	var e fleet.JournalEntry
	if err := json.Unmarshal(p, &e); err != nil {
		return fleet.JournalEntry{}, fmt.Errorf("wal: fleet record: %w", err)
	}
	return e, nil
}

// EncodeSched serializes a scheduler journal entry.
func EncodeSched(e sched.JournalEntry) ([]byte, error) { return json.Marshal(e) }

// DecodeSched parses a RecordSched payload.
func DecodeSched(p []byte) (sched.JournalEntry, error) {
	var e sched.JournalEntry
	if err := json.Unmarshal(p, &e); err != nil {
		return sched.JournalEntry{}, fmt.Errorf("wal: sched record: %w", err)
	}
	return e, nil
}

// EncodeCommand serializes a journaled RPC command.
func EncodeCommand(c Command) ([]byte, error) { return json.Marshal(c) }

// DecodeCommand parses a RecordCommand payload.
func DecodeCommand(p []byte) (Command, error) {
	var c Command
	if err := json.Unmarshal(p, &c); err != nil {
		return Command{}, fmt.Errorf("wal: command record: %w", err)
	}
	if c.Method == "" {
		return Command{}, fmt.Errorf("wal: command record: empty method")
	}
	return c, nil
}
