package chaos

import (
	"reflect"
	"testing"
)

func randomCfg(seed uint64) RandomConfig {
	return RandomConfig{
		HorizonSeconds: 600,
		Blocks:         8,
		OCSes:          10,
		Pods:           []string{"pod0", "pod1", "pod2", "pod3"},
		Seed:           seed,
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(randomCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(randomCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different scenarios")
	}
	c, err := Random(randomCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestRandomProducesValidBoundedSchedule(t *testing.T) {
	cfg := randomCfg(3)
	cfg.MaxEvents = 16
	s, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) == 0 {
		t.Fatal("accelerated default rates produced no events over 600s")
	}
	if len(s.Events) > 16 {
		t.Fatalf("got %d events, cap is 16", len(s.Events))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestRandomUsesRateTable(t *testing.T) {
	// Zero every rate except OCS failures: the schedule must contain only
	// outage/restore events.
	cfg := randomCfg(11)
	cfg.Rates = faultRates{OCSMTBFHours: 200, OCSRepairHours: 8,
		CubeMTTRHours: 24, PodBackendMTBFHours: 1e18,
		TransceiverBERPerHour: 1e-18, CircuitFlapPerHour: 1e-18,
		FlapMeanSeconds: 90, DrainStuckProb: 0.5, OCSMaintenancePerYear: 1e-18}
	s, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) == 0 {
		t.Fatal("no OCS events at 200h MTBF under 50000x acceleration")
	}
	for _, e := range s.Events {
		if e.Kind != KindOCSOutage && e.Kind != KindOCSRestore {
			t.Fatalf("unexpected %s with all non-OCS rates zeroed", e.Kind)
		}
	}
}

func TestRandomRejectsBadConfig(t *testing.T) {
	for _, cfg := range []RandomConfig{
		{HorizonSeconds: 0, Blocks: 4, OCSes: 4},
		{HorizonSeconds: 10, Blocks: 1, OCSes: 4},
		{HorizonSeconds: 10, Blocks: 4, OCSes: 0},
	} {
		if _, err := Random(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}
