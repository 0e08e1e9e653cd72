package ctlrpc

import (
	"encoding/json"
	"errors"

	"lightwave/internal/sched"
)

// Scheduler method names. Only the fleet daemon serves them, and only
// when started with -sched; a daemon without the flag reports the
// scheduler disabled and rejects submissions.
const (
	MethodSchedStatus = "sched-status"
	MethodSchedSubmit = "sched-submit"
)

// ErrSchedDisabled is returned for sched-submit on a daemon that runs no
// scheduler loop.
var ErrSchedDisabled = errors.New("scheduler disabled (start the daemon with -sched)")

// SchedStatusResult snapshots the daemon's slice-scheduler loop. Enabled
// is false when the daemon runs without -sched; the remaining fields
// then carry zero values.
type SchedStatusResult struct {
	Enabled bool     `json:"enabled"`
	Policy  string   `json:"policy,omitempty"`
	Pods    []string `json:"pods,omitempty"`
	sched.SchedulerStats
}

// SchedSubmitParams is one manual job submission.
type SchedSubmitParams struct {
	Cubes           int     `json:"cubes"`
	DurationSeconds float64 `json:"durationSeconds"`
}

// SchedSubmitResult acknowledges a submission. Placed reports whether the
// job started immediately; otherwise it waits in the queue.
type SchedSubmitResult struct {
	JobID  int  `json:"jobID"`
	Placed bool `json:"placed"`
}

// SchedProvider supplies the scheduler methods; *sched.Scheduler
// implements it. Implementations must be safe for concurrent use.
type SchedProvider interface {
	Policy() string
	Pods() []string
	Stats() sched.SchedulerStats
	Submit(sched.JobSpec) (id int, placed bool, err error)
}

func (s *Server) handleSchedStatus(json.RawMessage) (any, error) {
	if s.sched == nil {
		return SchedStatusResult{}, nil
	}
	return SchedStatusResult{Enabled: true, Policy: s.sched.Policy(), Pods: s.sched.Pods(), SchedulerStats: s.sched.Stats()}, nil
}

func (s *Server) handleSchedSubmit(params json.RawMessage) (any, error) {
	if s.sched == nil {
		return nil, ErrSchedDisabled
	}
	return typed(func(p SchedSubmitParams) (any, error) {
		id, placed, err := s.sched.Submit(sched.JobSpec(p))
		if err != nil {
			return nil, err
		}
		return SchedSubmitResult{JobID: id, Placed: placed}, nil
	})(params)
}
