package ocs

import (
	"errors"
	"testing"
	"testing/quick"

	"lightwave/internal/sim"
)

func TestApplyBuildsPermutation(t *testing.T) {
	s := newTestSwitch(t)
	p := Permutation{0: 5, 1: 6, 2: 7}
	res, err := s.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed != 3 || len(res.Established) != 3 {
		t.Fatalf("result = %+v", res)
	}
	for n, so := range p {
		if got, ok := s.ConnectionOf(n); !ok || got != so {
			t.Errorf("port %d -> %v (%v), want %d", n, got, ok, so)
		}
	}
}

func TestApplyLeavesUntouchedCircuitsUndisturbed(t *testing.T) {
	// §2.3 requirement: keep certain connections undisturbed while making
	// changes elsewhere. Untouched circuits must keep identical loss.
	s := newTestSwitch(t)
	keep := mustConnect(t, s, 0, 100)
	mustConnect(t, s, 1, 101)
	res, err := s.Apply(Permutation{1: 102, 2: 103})
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed != 2 {
		t.Fatalf("Changed = %d", res.Changed)
	}
	got, ok := s.ConnectionOf(0)
	if !ok || got != 100 {
		t.Fatal("untouched circuit disturbed")
	}
	for _, c := range s.Circuits() {
		if c.North == 0 && c.InsertionLossDB != keep.InsertionLossDB {
			t.Error("untouched circuit loss changed (was realigned)")
		}
	}
}

func TestApplyRejectsStealingBusySouth(t *testing.T) {
	s := newTestSwitch(t)
	mustConnect(t, s, 0, 100)
	_, err := s.Apply(Permutation{1: 100})
	if !errors.Is(err, ErrPortBusy) {
		t.Fatalf("err = %v, want ErrPortBusy", err)
	}
	// Original circuit must be intact after the rejected apply.
	if got, ok := s.ConnectionOf(0); !ok || got != 100 {
		t.Fatal("rejected apply disturbed existing circuit")
	}
}

func TestApplyAllowsRotation(t *testing.T) {
	// Moving a set of circuits among themselves in one batch is legal.
	s := newTestSwitch(t)
	mustConnect(t, s, 0, 10)
	mustConnect(t, s, 1, 11)
	_, err := s.Apply(Permutation{0: 11, 1: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.ConnectionOf(0); got != 11 {
		t.Errorf("0 -> %d, want 11", got)
	}
	if got, _ := s.ConnectionOf(1); got != 10 {
		t.Errorf("1 -> %d, want 10", got)
	}
}

func TestApplyIdempotentConnectionsNotCounted(t *testing.T) {
	s := newTestSwitch(t)
	mustConnect(t, s, 0, 10)
	res, err := s.Apply(Permutation{0: 10, 1: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed != 1 {
		t.Fatalf("Changed = %d, want 1 (0->10 already in place)", res.Changed)
	}
}

func TestApplyRejectsDuplicateSouth(t *testing.T) {
	s := newTestSwitch(t)
	_, err := s.Apply(Permutation{0: 5, 1: 5})
	if !errors.Is(err, ErrNotBijective) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyOutOfRange(t *testing.T) {
	s := newTestSwitch(t)
	if _, err := s.Apply(Permutation{0: 999}); !errors.Is(err, ErrPortRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyBatchDurationIsParallel(t *testing.T) {
	// All mirrors move concurrently: a 50-circuit batch should take about
	// one connection's setup time, not 50×.
	s := newTestSwitch(t)
	p := Permutation{}
	for i := 0; i < 50; i++ {
		p[PortID(i)] = PortID(i + 60)
	}
	res, err := s.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := New(DefaultConfig())
	c, _ := single.Connect(0, 1)
	if res.Duration > 2*c.SetupTime {
		t.Errorf("batch duration %.4f s, single setup %.4f s: not parallel", res.Duration, c.SetupTime)
	}
}

func TestFullPermutation(t *testing.T) {
	p, err := FullPermutation([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 2 || p[1] != 0 || p[2] != 1 {
		t.Fatalf("p = %v", p)
	}
	if _, err := FullPermutation([]int{0, 0}); !errors.Is(err, ErrNotBijective) {
		t.Errorf("duplicate accepted: %v", err)
	}
	if _, err := FullPermutation([]int{1, 2}); !errors.Is(err, ErrNotBijective) {
		t.Errorf("out-of-range accepted: %v", err)
	}
}

func TestApplyPropertyPreservesBijection(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		s, _ := New(DefaultConfig())
		r := sim.NewRand(seed)
		for round := 0; round < 10; round++ {
			p := Permutation{}
			perm := r.Perm(136)
			k := r.Intn(30)
			for i := 0; i < k; i++ {
				p[PortID(perm[i])] = PortID(perm[(i+40)%136])
			}
			_, _ = s.Apply(p) // may fail; state must stay consistent
			seen := make(map[PortID]bool)
			for _, c := range s.Circuits() {
				if seen[c.South] {
					return false
				}
				seen[c.South] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Error(err)
	}
}

// FullPermutation builds a Permutation connecting north port i to south port
// perm[i] for all i; perm must be a bijection on [0, len(perm)).
func FullPermutation(perm []int) (Permutation, error) {
	seen := make([]bool, len(perm))
	p := make(Permutation, len(perm))
	for n, so := range perm {
		if so < 0 || so >= len(perm) || seen[so] {
			return nil, ErrNotBijective
		}
		seen[so] = true
		p[PortID(n)] = PortID(so)
	}
	return p, nil
}
