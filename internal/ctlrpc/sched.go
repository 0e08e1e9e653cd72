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
	Enabled         bool     `json:"enabled"`
	Policy          string   `json:"policy,omitempty"`
	Pods            []string `json:"pods,omitempty"`
	QueueDepth      int      `json:"queueDepth"`
	RunningJobs     int      `json:"runningJobs"`
	Submitted       int      `json:"submitted"`
	Started         int      `json:"started"`
	Completed       int      `json:"completed"`
	Preempted       int      `json:"preempted"`
	Swaps           int      `json:"swaps"`
	MigratedCubes   int      `json:"migratedCubes"`
	Utilization     float64  `json:"utilization"`
	MeanWaitSeconds float64  `json:"meanWaitSeconds"`
	VirtualSeconds  float64  `json:"virtualSeconds"`
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

// SchedProvider supplies the scheduler methods. Implementations must be
// safe for concurrent use.
type SchedProvider interface {
	SchedStatus() SchedStatusResult
	SchedSubmit(SchedSubmitParams) (SchedSubmitResult, error)
}

// SchedulerProvider adapts a live sched.Scheduler to SchedProvider.
type SchedulerProvider struct {
	S *sched.Scheduler
}

// SchedStatus implements SchedProvider.
func (p SchedulerProvider) SchedStatus() SchedStatusResult {
	st := p.S.Stats()
	return SchedStatusResult{
		Enabled:         true,
		Policy:          p.S.Policy(),
		Pods:            p.S.Pods(),
		QueueDepth:      st.QueueDepth,
		RunningJobs:     st.RunningJobs,
		Submitted:       st.Submitted,
		Started:         st.Started,
		Completed:       st.Completed,
		Preempted:       st.Preempted,
		Swaps:           st.Swaps,
		MigratedCubes:   st.MigratedCubes,
		Utilization:     st.Utilization,
		MeanWaitSeconds: st.MeanWaitSeconds,
		VirtualSeconds:  st.Now,
	}
}

// SchedSubmit implements SchedProvider.
func (p SchedulerProvider) SchedSubmit(params SchedSubmitParams) (SchedSubmitResult, error) {
	id, placed, err := p.S.Submit(sched.JobSpec{
		Cubes:           params.Cubes,
		DurationSeconds: params.DurationSeconds,
	})
	if err != nil {
		return SchedSubmitResult{}, err
	}
	return SchedSubmitResult{JobID: id, Placed: placed}, nil
}

func (s *Server) handleSchedStatus(json.RawMessage) (any, error) {
	if s.sched == nil {
		return SchedStatusResult{}, nil
	}
	return s.sched.SchedStatus(), nil
}

func (s *Server) handleSchedSubmit(params json.RawMessage) (any, error) {
	if s.sched == nil {
		return nil, ErrSchedDisabled
	}
	return typed(s.sched.SchedSubmit)(params)
}
