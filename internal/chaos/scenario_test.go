package chaos

import (
	"errors"
	"testing"
)

func TestScenarioValidate(t *testing.T) {
	good := SingleOCSOutage(2, 30, 60, 300)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []Scenario{
		{Name: "", HorizonSeconds: 10},
		{Name: "x", HorizonSeconds: 0},
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: "nope"}}},
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 20, Kind: KindOCSOutage}}},
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindCircuitFlap, Trunk: [2]int{0, 1}}}},                                // no duration
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindPodLoss}}},                                                         // no pod
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindCircuitFlap, Trunk: [2]int{3, 3}, DurationSeconds: 1}}},            // degenerate trunk
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindBERDegrade, Trunk: [2]int{0, 1}, BER: 0, DurationSeconds: 1}}},     // no BER
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindSlowDrain, Pod: "p", OCS: 0, DurationSeconds: 0}}},                 // no duration
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: -1, Kind: KindPodLoss, Pod: "p"}}},                                              // negative onset
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindBERDegrade, Trunk: [2]int{-1, 2}, BER: 1e-4, DurationSeconds: 1}}}, // negative block
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindCircuitFlap, Trunk: [2]int{0, 1}, DurationSeconds: -5}}},           // negative duration
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindStuckDrain, OCS: 1}}},                                              // no pod
		{Name: "x", HorizonSeconds: 10, Events: []Event{{At: 1, Kind: KindBERDegrade, Trunk: [2]int{0, 1}, BER: 5, DurationSeconds: 1}}},     // BER not a probability
	}
	for i, s := range cases {
		if err := s.Validate(); !errors.Is(err, ErrScenario) {
			t.Errorf("case %d: err = %v, want ErrScenario", i, err)
		}
	}
}

func TestActionsExpandAndOrder(t *testing.T) {
	s := Scenario{
		Name: "mix", HorizonSeconds: 100,
		Events: []Event{
			{At: 50, Kind: KindCircuitFlap, Trunk: [2]int{0, 1}, DurationSeconds: 10},
			{At: 10, Kind: KindPodLoss, Pod: "pod0"},
			{At: 90, Kind: KindSlowDrain, Pod: "pod1", OCS: 2, DurationSeconds: 30}, // lift at 120 clamps out
		},
	}
	acts := s.actions()
	if len(acts) != 4 {
		t.Fatalf("got %d actions, want 4 (one lift clamped past horizon)", len(acts))
	}
	for i := 1; i < len(acts); i++ {
		if acts[i].at < acts[i-1].at {
			t.Fatalf("actions out of order: %v after %v", acts[i].at, acts[i-1].at)
		}
	}
	if acts[1].lift || acts[1].ev.Kind != KindCircuitFlap {
		t.Errorf("action 1 = %+v, want flap onset", acts[1])
	}
	if !acts[2].lift || acts[2].ev.Kind != KindCircuitFlap || acts[2].at != 60 {
		t.Errorf("action 2 = %+v, want flap lift at 60", acts[2])
	}
}

func TestNamedScenarioConstructors(t *testing.T) {
	for _, s := range []Scenario{
		SingleOCSOutage(0, 10, 30, 120),
		SingleOCSOutage(5, 0, 119, 120),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}
