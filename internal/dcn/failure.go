package dcn

import (
	"errors"
	"fmt"
)

// OCS failure handling for the DCN fabric: when a switch dies, every trunk
// it carried disappears. The control plane re-runs Program, which colors
// over the switches still up: it re-places the lost trunks (capacity
// permitting) while leaving all surviving circuits untouched — the fabric
// heals around the failure instead of taking the topology down.

// ErrSwitchIndex is returned for out-of-range switch references.
var ErrSwitchIndex = errors.New("dcn: switch index out of range")

// FailSwitch takes switch idx out of service by failing both of its power
// supplies (dropping all circuits, since MEMS mirrors are not latching)
// and returns the number of trunks lost.
func (f *Fabric) FailSwitch(idx int) (lostTrunks int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if idx < 0 || idx >= len(f.Switches) {
		return 0, fmt.Errorf("%w: %d", ErrSwitchIndex, idx)
	}
	sw := f.Switches[idx]
	lostTrunks = sw.NumCircuits()
	if err := sw.FailPSU(0); err != nil {
		return 0, err
	}
	if err := sw.FailPSU(1); err != nil {
		return 0, err
	}
	return lostTrunks, nil
}

// RepairSwitch returns switch idx to service (circuits are not restored;
// run Program to re-balance).
func (f *Fabric) RepairSwitch(idx int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if idx < 0 || idx >= len(f.Switches) {
		return fmt.Errorf("%w: %d", ErrSwitchIndex, idx)
	}
	if err := f.Switches[idx].ReplacePSU(0); err != nil {
		return err
	}
	return f.Switches[idx].ReplacePSU(1)
}
