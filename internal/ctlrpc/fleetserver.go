package ctlrpc

import (
	"context"
	"encoding/json"
	"fmt"

	"lightwave/internal/fleet"
)

// NewFleetServer returns a server with the fleet-scoped methods and the
// watch stream registered (cmd/lwfleetd). Every entry is lockNone: the
// manager is safe for concurrent use and reconciliation runs in its own
// workers, so slow pods never block the control socket — and none is
// lockRead, because the reader cannot probe the manager's own locking with
// a TryRLock.
func NewFleetServer(m *fleet.Manager) *Server {
	s := &Server{fleet: m, methods: registry{}}
	for _, e := range []*method{
		{name: MethodFleetStatus, fn: s.handleFleetStatus},
		{name: MethodApplyIntent, fn: typed(s.handleApplyIntent)},
		{name: MethodDrain, fn: typed(s.handleDrain)},
		{name: MethodUndrain, fn: typed(s.handleUndrain)},
		{name: MethodSchedStatus, fn: s.handleSchedStatus},
		{name: MethodSchedSubmit, fn: s.handleSchedSubmit},
		// The watch upgrade dedicates the connection to the event stream:
		// the pipeline stops decoding further requests, drains in-flight
		// workers, and hands the writer to streamEvents until the client
		// hangs up or ctx cancels.
		{name: MethodWatch, stream: s.streamEvents},
	} {
		s.methods.add(e)
	}
	s.registerProviders()
	return s
}

// streamEvents acknowledges the watch and pushes every fleet event as a
// Response carrying a WatchEvent, all under the watch request's ID. send
// reports false once the connection's write half failed, which ends the
// stream.
func (s *Server) streamEvents(ctx context.Context, send func(Response) bool, id uint64) {
	sub := s.fleet.Subscribe(256)
	defer sub.Close()
	if !send(marshalResponse(id, WatchAck{Watching: true}, nil)) {
		return
	}
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			we := WatchEvent{
				Seq:        ev.Seq,
				UnixMillis: ev.Time.UnixMilli(),
				Pod:        ev.Pod,
				Type:       string(ev.Type),
				Slice:      ev.Slice,
				Detail:     ev.Detail,
			}
			if !send(marshalResponse(id, we, nil)) {
				return
			}
		}
	}
}

func (s *Server) handleFleetStatus(json.RawMessage) (any, error) {
	return s.fleet.Status(), nil
}

func (s *Server) handleApplyIntent(p ApplyIntentParams) (any, error) {
	if p.Pod == "" {
		return nil, fmt.Errorf("apply-intent: missing pod")
	}
	if p.Replace {
		ins := make([]fleet.SliceIntent, 0, len(p.Slices))
		for _, sp := range p.Slices {
			if sp.Remove {
				return nil, fmt.Errorf("apply-intent: remove is meaningless with replace")
			}
			ins = append(ins, intentFromSpec(sp))
		}
		if err := s.fleet.ReplaceIntent(p.Pod, ins); err != nil {
			return nil, err
		}
		return ApplyIntentResult{Accepted: len(ins)}, nil
	}
	accepted := 0
	for _, sp := range p.Slices {
		var err error
		if sp.Remove {
			err = s.fleet.RemoveSliceIntent(p.Pod, sp.Name)
		} else {
			err = s.fleet.SetSliceIntent(p.Pod, intentFromSpec(sp))
		}
		if err != nil {
			return nil, err
		}
		accepted++
	}
	return ApplyIntentResult{Accepted: accepted}, nil
}

func (s *Server) handleDrain(p DrainParams) (any, error) {
	if p.OCS != nil {
		return struct{}{}, s.fleet.DrainOCS(p.Pod, *p.OCS)
	}
	return struct{}{}, s.fleet.DrainPod(p.Pod)
}

func (s *Server) handleUndrain(p DrainParams) (any, error) {
	if p.OCS != nil {
		return struct{}{}, s.fleet.UndrainOCS(p.Pod, *p.OCS)
	}
	return struct{}{}, s.fleet.UndrainPod(p.Pod)
}

func intentFromSpec(sp SliceIntentSpec) fleet.SliceIntent {
	return fleet.SliceIntent{
		Name:  sp.Name,
		Shape: shapeOf(sp.Shape),
		Cubes: sp.Cubes,
	}
}
