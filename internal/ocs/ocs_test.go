package ocs

import (
	"errors"
	"testing"
	"testing/quick"

	"lightwave/internal/sim"
	"lightwave/internal/telemetry"
)

func newTestSwitch(t *testing.T) *Switch {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewDefault(t *testing.T) {
	s := newTestSwitch(t)
	if s.Radix() != 136 {
		t.Errorf("Radix = %d", s.Radix())
	}
	if s.UsablePorts() != 128 {
		t.Errorf("UsablePorts = %d", s.UsablePorts())
	}
	if !s.Up() {
		t.Error("new switch not up")
	}
}

func TestNewInvalidConfigs(t *testing.T) {
	cases := []Config{
		{Radix: 0, MirrorsPerDie: 10, DriverBoards: 1},
		{Radix: 20, MirrorsPerDie: 10, DriverBoards: 1},               // fewer mirrors than ports
		{Radix: 8, MirrorsPerDie: 10, DriverBoards: 3},                // boards don't divide mirrors
		{Radix: 8, MirrorsPerDie: 16, DriverBoards: 2, SparePorts: 8}, // all ports spare
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestConnectDisconnect(t *testing.T) {
	s := newTestSwitch(t)
	c, err := s.Connect(3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if c.North != 3 || c.South != 77 {
		t.Fatalf("circuit = %+v", c)
	}
	if got, ok := s.ConnectionOf(3); !ok || got != 77 {
		t.Fatalf("ConnectionOf = %v %v", got, ok)
	}
	if s.NumCircuits() != 1 {
		t.Errorf("NumCircuits = %d", s.NumCircuits())
	}
	if err := s.Disconnect(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ConnectionOf(3); ok {
		t.Error("still connected after Disconnect")
	}
}

func TestConnectBusyPorts(t *testing.T) {
	s := newTestSwitch(t)
	mustConnect(t, s, 1, 2)
	if _, err := s.Connect(1, 3); !errors.Is(err, ErrPortBusy) {
		t.Errorf("north busy: err = %v", err)
	}
	if _, err := s.Connect(4, 2); !errors.Is(err, ErrPortBusy) {
		t.Errorf("south busy: err = %v", err)
	}
}

func TestConnectOutOfRange(t *testing.T) {
	s := newTestSwitch(t)
	if _, err := s.Connect(-1, 0); !errors.Is(err, ErrPortRange) {
		t.Errorf("err = %v", err)
	}
	if _, err := s.Connect(0, 136); !errors.Is(err, ErrPortRange) {
		t.Errorf("err = %v", err)
	}
}

func TestDisconnectErrors(t *testing.T) {
	s := newTestSwitch(t)
	if err := s.Disconnect(0); !errors.Is(err, ErrNotConnected) {
		t.Errorf("err = %v", err)
	}
	if err := s.Disconnect(999); !errors.Is(err, ErrPortRange) {
		t.Errorf("err = %v", err)
	}
}

func TestBijectivityInvariant(t *testing.T) {
	// Property: after arbitrary connect/disconnect sequences the map stays
	// a partial bijection.
	err := quick.Check(func(seed uint64) bool {
		s, _ := New(DefaultConfig())
		r := sim.NewRand(seed)
		for i := 0; i < 300; i++ {
			n := PortID(r.Intn(136))
			so := PortID(r.Intn(136))
			if r.Bernoulli(0.7) {
				_, _ = s.Connect(n, so)
			} else {
				_ = s.Disconnect(n)
			}
		}
		seen := make(map[PortID]bool)
		for _, c := range s.Circuits() {
			if seen[c.South] {
				return false
			}
			seen[c.South] = true
			got, ok := s.ConnectionOf(c.North)
			if !ok || got != c.South {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestInsertionLossCalibration(t *testing.T) {
	// Fig 10a: insertion losses are "typically less than 2 dB" across all
	// permutations, with a small tail.
	s := newTestSwitch(t)
	var sum sim.Summary
	over2, over3 := 0, 0
	n := 0
	for a := 0; a < 136; a += 3 {
		for b := 0; b < 136; b += 3 {
			l := s.IntrinsicLossDB(PortID(a), PortID(b))
			sum.Add(l)
			if l > 2 {
				over2++
			}
			if l > 3.5 {
				over3++
			}
			n++
		}
	}
	if sum.Mean() < 1.0 || sum.Mean() > 2.0 {
		t.Errorf("mean intrinsic loss = %.2f dB, want in [1,2]", sum.Mean())
	}
	if frac := float64(over2) / float64(n); frac > 0.15 {
		t.Errorf("%.1f%% of paths over 2 dB, want small tail", 100*frac)
	}
	if frac := float64(over3) / float64(n); frac > 0.005 {
		t.Errorf("%.2f%% of paths over 3.5 dB", 100*frac)
	}
	if sum.Min() <= 0 {
		t.Errorf("non-physical loss %.2f dB", sum.Min())
	}
}

func TestInsertionLossDeterministic(t *testing.T) {
	a, _ := New(DefaultConfig())
	b, _ := New(DefaultConfig())
	for i := 0; i < 50; i++ {
		p, q := PortID(i), PortID((i*7)%136)
		if a.IntrinsicLossDB(p, q) != b.IntrinsicLossDB(p, q) {
			t.Fatal("same seed produced different loss")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	c, _ := New(cfg)
	diff := false
	for i := 0; i < 20; i++ {
		if a.IntrinsicLossDB(PortID(i), PortID(i+1)) != c.IntrinsicLossDB(PortID(i), PortID(i+1)) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical units")
	}
}

func TestConnectedLossIncludesAlignmentResidual(t *testing.T) {
	s := newTestSwitch(t)
	c, err := s.Connect(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	floor := s.IntrinsicLossDB(10, 20)
	if c.InsertionLossDB <= floor {
		t.Errorf("connected loss %.3f <= intrinsic floor %.3f", c.InsertionLossDB, floor)
	}
	if c.InsertionLossDB > floor+0.2 {
		t.Errorf("alignment residual too large: %.3f dB over floor", c.InsertionLossDB-floor)
	}
}

func TestSetupTimeMillisecondClass(t *testing.T) {
	s := newTestSwitch(t)
	c, _ := s.Connect(0, 1)
	if c.SetupTime < 1e-3 || c.SetupTime > 0.1 {
		t.Errorf("setup time %.4f s, want millisecond class", c.SetupTime)
	}
}

func TestReturnLossCalibration(t *testing.T) {
	// Fig 10b: typically −46 dB, spec < −38 dB.
	s := newTestSwitch(t)
	var sum sim.Summary
	for p := 0; p < 136; p++ {
		rl, err := s.ReturnLossDB(PortID(p))
		if err != nil {
			t.Fatal(err)
		}
		if rl > -38 {
			t.Errorf("port %d return loss %.1f dB violates −38 dB spec", p, rl)
		}
		sum.Add(rl)
	}
	if sum.Mean() > -43 || sum.Mean() < -49 {
		t.Errorf("mean return loss %.1f dB, want ≈ −46", sum.Mean())
	}
	if _, err := s.ReturnLossDB(200); !errors.Is(err, ErrPortRange) {
		t.Errorf("err = %v", err)
	}
}

func TestMetricsExport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = telemetry.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, s, 0, 1)
	mustConnect(t, s, 2, 3)
	if got := cfg.Metrics.Counter("ocs.reconfigurations").Value(); got != 2 {
		t.Errorf("reconfigurations = %d", got)
	}
	if got := cfg.Metrics.Distribution("ocs.insertion_loss_db").Snapshot().N; got != 2 {
		t.Errorf("loss observations = %d", got)
	}
}

func mustConnect(t *testing.T, s *Switch, n, so PortID) Circuit {
	t.Helper()
	c, err := s.Connect(n, so)
	if err != nil {
		t.Fatalf("Connect(%d,%d): %v", n, so, err)
	}
	return c
}
