package wal

import (
	"encoding/binary"
	"encoding/json"

	"lightwave/internal/sched"
	"lightwave/internal/walrec"
)

// Owner-section records for the log-level tests. The scheduler and lwfd's
// fabric server own these codecs; the store reads only a record's version
// byte, so these tests need bytes in the owners' format, not a decoder.

// Command is a journaled RPC command.
type Command struct {
	Method string
	Params json.RawMessage
}

// encodeCommand writes c as lwfd's fabric server journals it: the method,
// then the params as raw bytes.
func encodeCommand(c Command) ([]byte, error) {
	b := walrec.AppendString([]byte{walrec.V1}, c.Method)
	b = binary.AppendUvarint(b, uint64(len(c.Params)))
	return append(b, c.Params...), nil
}

// schedRecord is the record a fresh scheduler journals for input.
func schedRecord(input func(*sched.Scheduler) error) []byte {
	s, err := sched.NewScheduler(sched.SchedulerConfig{Pods: []string{"pod0"}})
	if err != nil {
		panic(err)
	}
	var j lastRecord
	s.SetJournal(&j)
	if err := input(s); err != nil {
		panic(err)
	}
	return j.payload
}

// lastRecord is a journal that keeps the last payload appended.
type lastRecord struct {
	payload []byte
	lsn     uint64
}

func (j *lastRecord) Append(p []byte) (uint64, error) {
	j.payload = p
	j.lsn++
	return j.lsn, nil
}
