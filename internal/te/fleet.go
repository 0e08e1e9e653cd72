package te

import (
	"errors"
	"fmt"

	"lightwave/internal/dcn"
	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

// FleetApplier applies plans through the fleet control plane: the DCN
// fabric is registered as a first-class pod on the Manager, and every
// stage brackets its OCS reprogramming with DrainOCS/UndrainOCS on the
// switches whose circuits the stage tears — so maintenance visibility,
// events, and slice-placement deferral all ride the same reconcile path
// as the rest of the fleet (§3.2.2's "deep integration of control and
// monitoring"). The fabric's own lock serializes the programming with the
// manager's status reads of the pod.
type FleetApplier struct {
	m   *fleet.Manager
	pod string
	f   *dcn.Fabric
}

// NewFleetApplier registers the fabric with the manager under podName
// (reusing the pod if it already exists) and returns the applier.
func NewFleetApplier(m *fleet.Manager, podName string, f *dcn.Fabric) (*FleetApplier, error) {
	if err := m.AddPod(podName, dcnBackend{f}); err != nil && !errors.Is(err, fleet.ErrPodExists) {
		return nil, err
	}
	return &FleetApplier{m: m, pod: podName, f: f}, nil
}

// Apply implements Applier: for each stage, drain the OCSes the stage
// reprograms, program the stage's topology, then undrain.
func (a *FleetApplier) Apply(plan *Plan) error {
	for si, st := range plan.Stages {
		ids := a.f.SwitchesTouching(st.Tear)
		for _, id := range ids {
			if err := a.m.DrainOCS(a.pod, id); err != nil {
				return fmt.Errorf("te: stage %d drain ocs %d: %w", si, id, err)
			}
		}
		_, err := a.f.Program(st.After)
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

// dcnBackend is the fleet.Backend fronting a DCN fabric. The DCN pod
// carries inter-block trunks, not compute slices, so Ensure is rejected
// and Info reports circuit inventory only.
type dcnBackend struct {
	f *dcn.Fabric
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
func (b dcnBackend) Info() fleet.PodInfo { return fleet.PodInfo{Circuits: b.f.Circuits()} }
