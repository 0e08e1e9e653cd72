package ocs

import (
	"errors"
	"testing"
)

func TestFailPortDropsItsCircuits(t *testing.T) {
	s := newTestSwitch(t)
	mustConnect(t, s, 5, 9)
	mustConnect(t, s, 9, 5) // the same ports, opposite roles
	mustConnect(t, s, 1, 2) // unrelated
	dropped, err := s.FailPort(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 2 {
		t.Fatalf("dropped %d circuits, want 2", len(dropped))
	}
	if s.NumCircuits() != 1 {
		t.Fatalf("circuits = %d", s.NumCircuits())
	}
	// Failed port unusable on both sides.
	if _, err := s.Connect(5, 3); !errors.Is(err, ErrPortFailed) {
		t.Errorf("north use of failed port: %v", err)
	}
	if _, err := s.Connect(3, 5); !errors.Is(err, ErrPortFailed) {
		t.Errorf("south use of failed port: %v", err)
	}
	// Idempotent.
	if d, err := s.FailPort(5); err != nil || d != nil {
		t.Fatalf("second failure: %v %v", d, err)
	}
}

func TestSpareForAllocation(t *testing.T) {
	s := newTestSwitch(t)
	if s.SparesLeft() != 8 {
		t.Fatalf("spares = %d, want 8", s.SparesLeft())
	}
	if _, err := s.SpareFor(5); err == nil {
		t.Fatal("spare granted for a healthy port")
	}
	if _, err := s.FailPort(5); err != nil {
		t.Fatal(err)
	}
	spare, err := s.SpareFor(5)
	if err != nil {
		t.Fatal(err)
	}
	if int(spare) < s.Radix()-8 {
		t.Fatalf("spare %d not from the reserved pool", spare)
	}
	if s.SparesLeft() != 7 {
		t.Fatalf("spares = %d after allocation", s.SparesLeft())
	}
	// The spare is immediately usable.
	if _, err := s.Connect(spare, 9); err != nil {
		t.Fatalf("spare unusable: %v", err)
	}
}

func TestSpareExhaustion(t *testing.T) {
	s := newTestSwitch(t)
	for i := 0; i < 8; i++ {
		if _, err := s.FailPort(PortID(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SpareFor(PortID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.FailPort(20); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpareFor(20); !errors.Is(err, ErrNoSpare) {
		t.Fatalf("err = %v", err)
	}
}
