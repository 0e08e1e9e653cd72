package ocs

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"lightwave/internal/sim"
	"lightwave/internal/telemetry"
)

func TestApplyBuildsPermutation(t *testing.T) {
	s := newTestSwitch(t)
	p := permOf(map[PortID]PortID{0: 5, 1: 6, 2: 7})
	res, err := s.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed != 3 || len(res.Established) != 3 {
		t.Fatalf("result = %+v", res)
	}
	for _, m := range p {
		if got, ok := s.ConnectionOf(m.North); !ok || got != m.South {
			t.Errorf("port %d -> %v (%v), want %d", m.North, got, ok, m.South)
		}
	}
}

func TestApplyLeavesUntouchedCircuitsUndisturbed(t *testing.T) {
	// §2.3 requirement: keep certain connections undisturbed while making
	// changes elsewhere. Untouched circuits must keep identical loss.
	s := newTestSwitch(t)
	keep := mustConnect(t, s, 0, 100)
	mustConnect(t, s, 1, 101)
	res, err := s.Apply(permOf(map[PortID]PortID{1: 102, 2: 103}))
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
	_, err := s.Apply(permOf(map[PortID]PortID{1: 100}))
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
	_, err := s.Apply(permOf(map[PortID]PortID{0: 11, 1: 10}))
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
	res, err := s.Apply(permOf(map[PortID]PortID{0: 10, 1: 11}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed != 1 {
		t.Fatalf("Changed = %d, want 1 (0->10 already in place)", res.Changed)
	}
}

func TestApplyRejectsDuplicateSouth(t *testing.T) {
	s := newTestSwitch(t)
	_, err := s.Apply(permOf(map[PortID]PortID{0: 5, 1: 5}))
	if !errors.Is(err, ErrNotBijective) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyOutOfRange(t *testing.T) {
	s := newTestSwitch(t)
	if _, err := s.Apply(permOf(map[PortID]PortID{0: 999})); !errors.Is(err, ErrPortRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyBatchDurationIsParallel(t *testing.T) {
	// All mirrors move concurrently: a 50-circuit batch should take about
	// one connection's setup time, not 50×.
	s := newTestSwitch(t)
	p := Permutation{}
	for i := 0; i < 50; i++ {
		p = append(p, Move{North: PortID(i), South: PortID(i + 60)})
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
	if want := (Permutation{{North: 0, South: 2}, {North: 1, South: 0}, {North: 2, South: 1}}); !reflect.DeepEqual(p, want) {
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
				p = append(p, Move{North: PortID(perm[i]), South: PortID(perm[(i+40)%136])})
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

func TestApplyDark(t *testing.T) {
	// Dark tears a north port's circuit down; the same batch may hand the
	// freed south port to another north port. Each case starts from 0->10
	// and 1->11; the circuits it names afterwards are the whole switch.
	for _, tc := range []struct {
		name    string
		p       Permutation
		want    map[PortID]PortID
		changed int
		err     error
	}{
		{"teardown only", permOf(map[PortID]PortID{0: Dark}), map[PortID]PortID{1: 11}, 1, nil},
		{"teardown and move of its south", permOf(map[PortID]PortID{0: Dark, 2: 10}), map[PortID]PortID{1: 11, 2: 10}, 2, nil},
		{"dark on an unconnected port", permOf(map[PortID]PortID{5: Dark}), map[PortID]PortID{0: 10, 1: 11}, 0, nil},
		{"refused batch tears nothing", permOf(map[PortID]PortID{0: Dark, 2: 999}), map[PortID]PortID{0: 10, 1: 11}, 0, ErrPortRange},
		{"dark implied by a move of its north", Permutation{{North: 0, South: 12}, {North: 0, South: Dark}}, map[PortID]PortID{0: 12, 1: 11}, 1, nil},
		{"dark implied by a keep", Permutation{{North: 1, South: 11}, {North: 1, South: Dark}}, map[PortID]PortID{0: 10, 1: 11}, 0, nil},
		{"north targeted twice", Permutation{{North: 0, South: 12}, {North: 0, South: 13}}, map[PortID]PortID{0: 10, 1: 11}, 0, ErrNotBijective},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSwitch(t)
			mustConnect(t, s, 0, 10)
			mustConnect(t, s, 1, 11)
			res, err := s.Apply(tc.p)
			if !errors.Is(err, tc.err) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if res.Changed != tc.changed {
				t.Errorf("Changed = %d, want %d", res.Changed, tc.changed)
			}
			got := map[PortID]PortID{}
			for _, c := range s.Circuits() {
				got[c.North] = c.South
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("circuits %v, want %v", got, tc.want)
			}
		})
	}
}

func TestApplyAllIsAllOrNothing(t *testing.T) {
	// Three switches each carry 0->10; the transaction moves it to 0->20
	// and adds 1->21 on every switch. When switch k refuses, the switches
	// before it keep bit-equal circuits, and so does every other.
	undrivable := func(t *testing.T, s *Switch) PortID {
		t.Helper()
		if _, err := s.FailDriverBoard(7); err != nil {
			t.Fatal(err)
		}
		for p := PortID(32); int(p) < s.Radix(); p++ { // clear of the ports the batch names
			if !s.portDrivable(p) {
				return p
			}
		}
		t.Fatal("driver board 7 drives no port above 31")
		return 0
	}
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, sws []*Switch, perms []Permutation)
		err   error
	}{
		{"accepted", func(*testing.T, []*Switch, []Permutation) {}, nil},
		{"switch 1 down", func(t *testing.T, sws []*Switch, _ []Permutation) {
			for i := 0; i < 2; i++ {
				if err := sws[1].FailPSU(i); err != nil {
					t.Fatal(err)
				}
			}
		}, ErrSwitchDown},
		{"switch 2 undrivable", func(t *testing.T, sws []*Switch, perms []Permutation) {
			perms[2] = append(perms[2], Move{North: undrivable(t, sws[2]), South: 31})
		}, ErrPortFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sws, err := NewSwitches(3, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			perms := make([]Permutation, len(sws))
			for i, s := range sws {
				mustConnect(t, s, 0, 10)
				perms[i] = permOf(map[PortID]PortID{0: 20, 1: 21})
			}
			tc.spoil(t, sws, perms)
			before := make([][]Circuit, len(sws))
			for i, s := range sws {
				before[i] = s.Circuits()
			}
			err = ApplyAll(sws, perms)
			if !errors.Is(err, tc.err) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			for i, s := range sws {
				if tc.err != nil {
					if got := s.Circuits(); !reflect.DeepEqual(got, before[i]) {
						t.Errorf("switch %d changed by a refused transaction: %v, want %v", i, got, before[i])
					}
					continue
				}
				for _, m := range perms[i] {
					if got, ok := s.ConnectionOf(m.North); !ok || got != m.South {
						t.Errorf("switch %d: north %d -> %d (%v), want %d", i, m.North, got, ok, m.South)
					}
				}
			}
		})
	}
}

// TestApplyAllAllocatesNothing: once the switches exist, a transaction
// over several of them — circuits moved, torn down and set up, floors
// evaluated up front by Switch.Move or left to the switch — allocates
// nothing. Two transactions alternate, each undoing the other.
func TestApplyAllAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = telemetry.NewRegistry()
	sws, err := NewSwitches(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var txs [2][]Permutation
	for k := range txs {
		txs[k] = make([]Permutation, len(sws))
	}
	for i, s := range sws {
		for n := PortID(0); n < 64; n++ {
			txs[0][i] = append(txs[0][i], s.Move(n, (n+1)%64))
			txs[1][i] = append(txs[1][i], Move{North: n, South: (n + 7) % 64})
		}
		txs[1][i][5].South = Dark
	}
	k := 0
	allocs := testing.AllocsPerRun(50, func() {
		if err := ApplyAll(sws, txs[k%2]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("ApplyAll: %v allocs per transaction", allocs)
	}
	if n := sws[0].NumCircuits(); n != 64 && n != 63 {
		t.Fatalf("%d circuits after the transactions, want 63 or 64", n)
	}
}

// FullPermutation builds a Permutation connecting north port i to south port
// perm[i] for all i; perm must be a bijection on [0, len(perm)).
func FullPermutation(perm []int) (Permutation, error) {
	seen := make([]bool, len(perm))
	p := make(Permutation, 0, len(perm))
	for n, so := range perm {
		if so < 0 || so >= len(perm) || seen[so] {
			return nil, ErrNotBijective
		}
		seen[so] = true
		p = append(p, Move{North: PortID(n), South: PortID(so)})
	}
	return p, nil
}
