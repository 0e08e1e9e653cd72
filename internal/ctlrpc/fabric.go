package ctlrpc

import (
	"encoding/json"
	"errors"

	"lightwave/internal/core"
	"lightwave/internal/topo"
)

// NewServer returns a server with the per-fabric methods registered
// (cmd/lwfd). Fabric methods are not concurrency-safe, so mutations take
// the write lock and reads share the read lock — with each other, and
// across connections.
func NewServer(f *core.Fabric) *Server {
	s := &Server{fabric: f, methods: registry{}}
	for _, m := range []*method{
		{name: MethodStatus, lock: lockRead, cached: true, fn: s.handleStatus},
		{name: MethodSlice, lock: lockRead, fn: typed(s.handleSlice)},
		{name: MethodMetrics, lock: lockRead, fn: s.handleMetrics},

		{name: MethodCompose, lock: lockWrite, journal: true, fn: typed(s.handleCompose)},
		{name: MethodDestroy, lock: lockWrite, journal: true, fn: typed(s.handleDestroy)},
		{name: MethodEnsure, lock: lockWrite, journal: true, fn: typed(s.handleEnsure)},
		{name: MethodReshape, lock: lockWrite, journal: true, fn: typed(s.handleReshape)},
		{name: MethodFailCube, lock: lockWrite, journal: true, fn: typed(s.handleFailCube)},
		{name: MethodRepairCube, lock: lockWrite, journal: true, fn: typed(s.handleRepairCube)},
		{name: MethodInstallCube, lock: lockWrite, journal: true, fn: typed(s.handleInstallCube)},
		{name: MethodRepairLink, lock: lockWrite, journal: true, fn: typed(s.handleRepairLink)},
		// A telemetry feed, not fabric state: it mutates the detectors
		// (write lock) but is not journaled.
		{name: MethodObserveBER, lock: lockWrite, fn: typed(s.handleObserveBER)},
	} {
		s.methods.add(m)
	}
	s.registerProviders()
	return s
}

func shapeOf(s [3]int) topo.Shape { return topo.Shape{X: s[0], Y: s[1], Z: s[2]} }

func sliceResult(sl *core.Slice) SliceResult {
	return SliceResult{
		Name:          sl.Name,
		Shape:         [3]int{sl.Shape.X, sl.Shape.Y, sl.Shape.Z},
		Cubes:         sl.Cubes,
		Circuits:      len(sl.Circuits),
		WorstMarginDB: sl.WorstMarginDB,
	}
}

func (s *Server) handleStatus(json.RawMessage) (any, error) {
	st := StatusResult{
		InstalledCubes: s.fabric.InstalledCubes(),
		FreeCubes:      s.fabric.FreeCubes(),
		TotalCircuits:  s.fabric.TotalCircuits(),
	}
	for _, sl := range s.fabric.Slices() {
		st.Slices = append(st.Slices, sl.Name)
	}
	return st, nil
}

func (s *Server) handleSlice(p NameParams) (any, error) {
	sl, err := s.fabric.GetSlice(p.Name)
	if err != nil {
		return nil, err
	}
	return sliceResult(sl), nil
}

func (s *Server) handleMetrics(json.RawMessage) (any, error) {
	reg := s.fabric.Metrics()
	if reg == nil {
		return MetricsResult{}, nil
	}
	return MetricsResult{Text: reg.Text()}, nil
}

func (s *Server) handleCompose(p ComposeParams) (any, error) {
	sl, err := s.fabric.ComposeSlice(p.Name, shapeOf(p.Shape), p.Cubes)
	if err != nil {
		return nil, err
	}
	return sliceResult(sl), nil
}

func (s *Server) handleDestroy(p NameParams) (any, error) {
	if err := s.fabric.DestroySlice(p.Name); err != nil {
		if p.IfPresent && errors.Is(err, core.ErrNoSlice) {
			return struct{}{}, nil
		}
		return nil, err
	}
	return struct{}{}, nil
}

func (s *Server) handleEnsure(p EnsureParams) (any, error) {
	sl, changed, err := s.fabric.EnsureSlice(p.Name, shapeOf(p.Shape), p.Cubes)
	if err != nil {
		return nil, err
	}
	return EnsureResult{Slice: sliceResult(sl), Changed: changed}, nil
}

func (s *Server) handleReshape(p ReshapeParams) (any, error) {
	sl, err := s.fabric.ReshapeSlice(p.Name, shapeOf(p.Shape), p.Cubes)
	if err != nil {
		return nil, err
	}
	return sliceResult(sl), nil
}

func (s *Server) handleFailCube(p CubeParams) (any, error) {
	rc, err := s.fabric.MarkCubeFailed(p.Cube)
	if err != nil {
		return nil, err
	}
	return FailCubeResult{Replacement: rc}, nil
}

func (s *Server) handleRepairCube(p CubeParams) (any, error) {
	return struct{}{}, s.fabric.RepairCube(p.Cube)
}

func (s *Server) handleInstallCube(p CubeParams) (any, error) {
	return struct{}{}, s.fabric.InstallCube(p.Cube)
}

func (s *Server) handleRepairLink(p RepairLinkParams) (any, error) {
	spare, err := s.fabric.RepairLink(topo.OCSID(p.OCS), p.Cube)
	if err != nil {
		return nil, err
	}
	return RepairLinkResult{SparePort: int(spare)}, nil
}

func (s *Server) handleObserveBER(p ObserveBERParams) (any, error) {
	anom, err := s.fabric.ObserveLinkBER(topo.OCSID(p.OCS), p.Port, p.BER)
	return ObserveBERResult{Anomalous: anom}, err
}
