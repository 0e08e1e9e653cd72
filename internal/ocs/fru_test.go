package ocs

import (
	"errors"
	"testing"

	"lightwave/internal/telemetry"
)

func TestDriverBoardFailureDropsCircuits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = telemetry.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustConnect(t, s, PortID(i), PortID(i+50))
	}
	before := s.NumCircuits()
	dropped, err := s.FailDriverBoard(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) == 0 {
		t.Fatal("board failure dropped no circuits (implausible for 20 circuits, 8 boards)")
	}
	if s.NumCircuits() != before-len(dropped) {
		t.Errorf("circuits = %d, want %d", s.NumCircuits(), before-len(dropped))
	}
	if got := cfg.Metrics.Counter("ocs.circuits_dropped_by_fru").Value(); got != int64(len(dropped)) {
		t.Errorf("ocs.circuits_dropped_by_fru = %d, want %d", got, len(dropped))
	}
	// Remaining circuits are untouched and still drivable.
	for _, c := range s.Circuits() {
		if got, ok := s.ConnectionOf(c.North); !ok || got != c.South {
			t.Error("surviving circuit corrupted")
		}
	}
}

func TestDriverBoardFailureBlocksNewCircuits(t *testing.T) {
	s := newTestSwitch(t)
	if _, err := s.FailDriverBoard(0); err != nil {
		t.Fatal(err)
	}
	// Find a port served by board 0 on die 0 and try to connect it.
	blocked := false
	for p := 0; p < s.Radix(); p++ {
		if !s.portDrivable(PortID(p)) {
			if _, err := s.Connect(PortID(p), PortID((p+1)%s.Radix())); !errors.Is(err, ErrPortFailed) {
				t.Fatalf("undrivable port connected: %v", err)
			}
			blocked = true
			break
		}
	}
	if !blocked {
		t.Fatal("no port affected by board 0 failure")
	}
}

func TestDriverBoardReplace(t *testing.T) {
	s := newTestSwitch(t)
	if _, err := s.FailDriverBoard(3); err != nil {
		t.Fatal(err)
	}
	if s.DriverBoardHealthy(3) {
		t.Fatal("board still healthy after failure")
	}
	if err := s.ReplaceDriverBoard(3); err != nil {
		t.Fatal(err)
	}
	if !s.DriverBoardHealthy(3) {
		t.Fatal("board not healthy after replace")
	}
	if err := s.ReplaceDriverBoard(3); !errors.Is(err, ErrBoardHealthy) {
		t.Errorf("replacing healthy board: err = %v", err)
	}
	if _, err := s.FailDriverBoard(99); !errors.Is(err, ErrDriverBoard) {
		t.Errorf("err = %v", err)
	}
}

func TestDriverBoardFailureIdempotent(t *testing.T) {
	s := newTestSwitch(t)
	if _, err := s.FailDriverBoard(1); err != nil {
		t.Fatal(err)
	}
	dropped, err := s.FailDriverBoard(1)
	if err != nil || dropped != nil {
		t.Fatalf("second failure: dropped=%v err=%v", dropped, err)
	}
}

func TestMirrorFailureRepairsFromSpares(t *testing.T) {
	s := newTestSwitch(t)
	// Fail the mirror serving port 5 on die 0.
	m := s.portMirror[0][5]
	_, repaired, err := s.FailMirror(0, m)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("port not repaired despite spares")
	}
	if spare := s.portMirror[0][5]; spare == m || !s.dies[0].ok[spare] {
		t.Errorf("port 5 remapped from mirror %d to %d, want a healthy spare", m, spare)
	}
	// Port 5 must be usable again.
	if _, err := s.Connect(5, 9); err != nil {
		t.Fatalf("repaired port unusable: %v", err)
	}
}

func TestMirrorFailureDropsActiveCircuit(t *testing.T) {
	s := newTestSwitch(t)
	mustConnect(t, s, 5, 9)
	m := s.portMirror[0][5]
	dropped, _, err := s.FailMirror(0, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0].North != 5 {
		t.Fatalf("dropped = %v", dropped)
	}
}

func TestMirrorExhaustionFailsPort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MirrorsPerDie = 136 // no spares
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := s.portMirror[0][7]
	_, repaired, err := s.FailMirror(0, m)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Fatal("repair reported with zero spares")
	}
	if _, err := s.Connect(7, 8); !errors.Is(err, ErrPortFailed) {
		t.Fatalf("dead port connected: %v", err)
	}
}

func TestMirrorFailureErrors(t *testing.T) {
	s := newTestSwitch(t)
	if _, _, err := s.FailMirror(2, 0); !errors.Is(err, ErrMirrorRange) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := s.FailMirror(0, 999); !errors.Is(err, ErrMirrorRange) {
		t.Errorf("err = %v", err)
	}
}

func TestPSURedundancy(t *testing.T) {
	s := newTestSwitch(t)
	mustConnect(t, s, 0, 1)
	if err := s.FailPSU(0); err != nil {
		t.Fatal(err)
	}
	if !s.Up() {
		t.Fatal("switch down with one healthy PSU")
	}
	if s.NumCircuits() != 1 {
		t.Fatal("single PSU failure dropped circuits")
	}
	if err := s.FailPSU(1); err != nil {
		t.Fatal(err)
	}
	if s.Up() {
		t.Fatal("switch up with no PSUs")
	}
	// Mirrors are non-latching: all circuits lost on power failure.
	if s.NumCircuits() != 0 {
		t.Fatal("circuits survived total power loss")
	}
	if _, err := s.Connect(2, 3); !errors.Is(err, ErrSwitchDown) {
		t.Errorf("err = %v", err)
	}
	if err := s.ReplacePSU(0); err != nil {
		t.Fatal(err)
	}
	if !s.Up() {
		t.Fatal("switch not up after PSU replace")
	}
}

func TestFanRedundancy(t *testing.T) {
	s := newTestSwitch(t)
	if err := s.FailFan(0); err != nil {
		t.Fatal(err)
	}
	if !s.Up() {
		t.Fatal("down after single fan failure")
	}
	if err := s.FailFan(1); err != nil {
		t.Fatal(err)
	}
	if s.Up() {
		t.Fatal("up after two fan failures")
	}
	if err := s.ReplaceFan(0); err != nil {
		t.Fatal(err)
	}
	if !s.Up() {
		t.Fatal("not up after fan replaced")
	}
}

func TestFRUOutOfRange(t *testing.T) {
	s := newTestSwitch(t)
	if err := s.FailPSU(2); err == nil {
		t.Error("psu 2 accepted")
	}
	if err := s.ReplacePSU(-1); err == nil {
		t.Error("psu -1 accepted")
	}
	if err := s.FailFan(10); err == nil {
		t.Error("fan 10 accepted")
	}
	if err := s.ReplaceFan(-1); err == nil {
		t.Error("fan -1 accepted")
	}
	if _, err := s.FailPort(999); !errors.Is(err, ErrPortRange) {
		t.Errorf("port 999: err = %v", err)
	}
}

// TestFRUDropsAllCounted: every hardware path that drops circuits — a
// port, a driver board, a mirror, and the chassis going down when its
// second PSU fails — counts each circuit it tears down on the
// ocs.circuits_dropped_by_fru metric.
func TestFRUDropsAllCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = telemetry.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		mustConnect(t, s, PortID(i), PortID(i+60))
	}
	metric := cfg.Metrics.Counter("ocs.circuits_dropped_by_fru")
	circuits, counted := s.NumCircuits(), int64(0)
	check := func(step string, wantDrops bool) {
		t.Helper()
		lost := int64(circuits - s.NumCircuits())
		if got := metric.Value() - counted; got != lost {
			t.Fatalf("after %s: metric counts %d drops, %d circuits went", step, got, lost)
		}
		if dropped := lost > 0; dropped != wantDrops {
			t.Fatalf("after %s: dropped circuits = %v, want %v", step, dropped, wantDrops)
		}
		circuits, counted = s.NumCircuits(), metric.Value()
	}
	if _, err := s.FailPort(5); err != nil {
		t.Fatal(err)
	}
	check("FailPort", true)
	if _, err := s.FailDriverBoard(1); err != nil {
		t.Fatal(err)
	}
	check("FailDriverBoard", true)
	live := s.Circuits()
	if len(live) == 0 {
		t.Fatal("no circuit left to fail a mirror under")
	}
	if _, _, err := s.FailMirror(0, s.portMirror[0][live[0].North]); err != nil {
		t.Fatal(err)
	}
	check("FailMirror", true)
	if err := s.FailPSU(0); err != nil {
		t.Fatal(err)
	}
	check("the first FailPSU", false)
	if err := s.FailPSU(1); err != nil {
		t.Fatal(err)
	}
	check("the second FailPSU", true)
	if s.NumCircuits() != 0 {
		t.Errorf("%d circuits survive the chassis going down", s.NumCircuits())
	}
}

// TestReturnLossUnderCeiling: every port of every switch a fabric builds
// returns at most ReturnLossCeilingDB, before and after each FRU
// operation. Slice admission prices its sure-admit bound at that ceiling.
func TestReturnLossUnderCeiling(t *testing.T) {
	sws, err := NewSwitches(48, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sws {
		for p := 0; p < 60; p++ {
			mustConnect(t, s, PortID(p), PortID(p+60))
		}
		check := func(step string) {
			t.Helper()
			for p := 0; p < s.Radix(); p++ {
				if rl, err := s.ReturnLossDB(PortID(p)); err != nil || rl > ReturnLossCeilingDB {
					t.Fatalf("switch %d, after %s: port %d return loss %v dB (err %v), ceiling %v dB",
						i, step, p, rl, err, ReturnLossCeilingDB)
				}
			}
		}
		check("New")
		for _, op := range []struct {
			name string
			do   func() error
		}{
			{"FailPort", func() error { _, err := s.FailPort(5); return err }},
			{"SpareFor", func() error { _, err := s.SpareFor(5); return err }},
			{"FailDriverBoard", func() error { _, err := s.FailDriverBoard(1); return err }},
			{"ReplaceDriverBoard", func() error { return s.ReplaceDriverBoard(1) }},
			{"FailMirror", func() error { _, _, err := s.FailMirror(0, s.portMirror[0][10]); return err }},
			{"FailFan", func() error { return s.FailFan(0) }},
			{"ReplaceFan", func() error { return s.ReplaceFan(0) }},
			{"FailPSU", func() error { return s.FailPSU(0) }},
			{"ReplacePSU", func() error { return s.ReplacePSU(0) }},
		} {
			if err := op.do(); err != nil {
				t.Fatalf("switch %d: %s: %v", i, op.name, err)
			}
			check(op.name)
		}
	}
}
