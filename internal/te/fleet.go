package te

import (
	"errors"
	"fmt"
	"sync"

	"lightwave/internal/dcn"
	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

// FabricProgrammer is the DCN hardware a FleetApplier drives, behind
// whatever serializes it against the manager's status reads. The plain
// implementation wraps a dcn.Fabric (NewFleetApplier); chaos.Injector is
// the other, programming around the switches a scenario has failed.
type FabricProgrammer interface {
	// Program realizes the topology on the fabric.
	Program(t *dcn.Topology) error
	// SwitchesTouching returns the sorted IDs of the drainable switches
	// hosting a circuit of any torn pair — the set a stage must drain.
	SwitchesTouching(tears [][2]int) []int
	// Circuits counts the circuits currently established.
	Circuits() int
}

// FleetApplier applies plans through the fleet control plane: the DCN
// fabric is registered as a first-class pod on the Manager, and every
// stage brackets its OCS reprogramming with DrainOCS/UndrainOCS on the
// switches whose circuits the stage tears — so maintenance visibility,
// events, and slice-placement deferral all ride the same reconcile path
// as the rest of the fleet (§3.2.2's "deep integration of control and
// monitoring").
type FleetApplier struct {
	m   *fleet.Manager
	pod string
	p   FabricProgrammer
}

// NewFleetApplier registers the fabric with the manager under podName
// (reusing the pod if it already exists) and returns the applier.
func NewFleetApplier(m *fleet.Manager, podName string, f *dcn.Fabric) (*FleetApplier, error) {
	return NewFleetApplierOver(m, podName, &lockedFabric{f: f})
}

// NewFleetApplierOver is NewFleetApplier for a fabric reached through p.
func NewFleetApplierOver(m *fleet.Manager, podName string, p FabricProgrammer) (*FleetApplier, error) {
	if err := m.AddPod(podName, dcnBackend{p}); err != nil && !errors.Is(err, fleet.ErrPodExists) {
		return nil, err
	}
	return &FleetApplier{m: m, pod: podName, p: p}, nil
}

// Apply implements Applier: for each stage, drain the OCSes the stage
// reprograms, program the stage's topology, then undrain.
func (a *FleetApplier) Apply(plan *Plan) error {
	for si, st := range plan.Stages {
		ids := a.p.SwitchesTouching(st.Tear)
		for _, id := range ids {
			if err := a.m.DrainOCS(a.pod, id); err != nil {
				return fmt.Errorf("te: stage %d drain ocs %d: %w", si, id, err)
			}
		}
		err := a.p.Program(st.After)
		for _, id := range ids {
			if uerr := a.m.UndrainOCS(a.pod, id); uerr != nil && err == nil {
				err = fmt.Errorf("te: stage %d undrain ocs %d: %w", si, id, uerr)
			}
		}
		if err != nil {
			return fmt.Errorf("te: stage %d: %w", si, err)
		}
	}
	return nil
}

// lockedFabric is the plain FabricProgrammer: a dcn.Fabric behind a mutex
// that serializes the applier's programming with the manager's status
// snapshots.
type lockedFabric struct {
	mu sync.Mutex
	f  *dcn.Fabric
}

func (b *lockedFabric) Program(t *dcn.Topology) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, err := b.f.Program(t)
	return err
}

func (b *lockedFabric) SwitchesTouching(tears [][2]int) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f.SwitchesTouching(tears)
}

func (b *lockedFabric) Circuits() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f.Circuits()
}

// dcnBackend is the fleet.Backend fronting a DCN fabric. The DCN pod
// carries inter-block trunks, not compute slices, so Ensure is rejected
// and Info reports circuit inventory only.
type dcnBackend struct {
	p FabricProgrammer
}

// Ensure implements fleet.Backend. The DCN pod hosts no compute slices.
func (b dcnBackend) Ensure(name string, _ topo.Shape, _ []int) (bool, error) {
	return false, fmt.Errorf("%w: DCN fabric pod cannot host slice %q", fleet.ErrBadIntent, name)
}

// Destroy implements fleet.Backend; there is nothing to destroy.
func (b dcnBackend) Destroy(string) error { return nil }

// Slices implements fleet.Backend.
func (b dcnBackend) Slices() []string { return nil }

// Info implements fleet.Backend.
func (b dcnBackend) Info() fleet.PodInfo { return fleet.PodInfo{Circuits: b.p.Circuits()} }
