package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandFloat64Uniform(t *testing.T) {
	r := NewRand(11)
	var s, sq Summary
	for i := 0; i < 100000; i++ {
		x := r.Float64()
		s.Add(x)
		sq.Add(x * x)
	}
	if math.Abs(s.Mean()-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", s.Mean())
	}
	// Variance of U(0,1) is 1/12.
	if v := sq.Mean() - s.Mean()*s.Mean(); math.Abs(v-1.0/12) > 0.005 {
		t.Errorf("var = %v, want ~%v", v, 1.0/12)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRandNormFloat64Moments(t *testing.T) {
	r := NewRand(9)
	var s, sq Summary
	for i := 0; i < 200000; i++ {
		x := r.NormFloat64()
		s.Add(x)
		sq.Add(x * x)
	}
	if math.Abs(s.Mean()) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", s.Mean())
	}
	if sd := math.Sqrt(sq.Mean() - s.Mean()*s.Mean()); math.Abs(sd-1) > 0.01 {
		t.Errorf("normal stddev = %v, want ~1", sd)
	}
}

func TestRandExpFloat64Mean(t *testing.T) {
	r := NewRand(13)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.ExpFloat64())
	}
	if math.Abs(s.Mean()-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", s.Mean())
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(21)
	child := r.Split()
	// Parent and child streams should not be identical.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams matched %d times", same)
	}
}

func TestRandBernoulli(t *testing.T) {
	r := NewRand(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) hit rate = %v", frac)
	}
}

func TestRandShuffle(t *testing.T) {
	r := NewRand(23)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("value %d lost in shuffle", i)
		}
	}
}

func TestZeroValueRandUsable(t *testing.T) {
	var r Rand
	if r.Uint64() == r.Uint64() {
		t.Fatal("zero-value Rand is not advancing")
	}
}

func TestSubstreamDeterministic(t *testing.T) {
	a, b := Substream(42, 7), Substream(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, index) diverged at step %d", i)
		}
	}
}

func TestSubstreamsIndependent(t *testing.T) {
	// Distinct indices, and the parent stream itself, must not collide.
	streams := []*Rand{NewRand(42), Substream(42, 0), Substream(42, 1), Substream(42, 2)}
	draws := make([][]uint64, len(streams))
	for i, s := range streams {
		for j := 0; j < 200; j++ {
			draws[i] = append(draws[i], s.Uint64())
		}
	}
	for i := 0; i < len(streams); i++ {
		for j := i + 1; j < len(streams); j++ {
			same := 0
			for k := range draws[i] {
				if draws[i][k] == draws[j][k] {
					same++
				}
			}
			if same > 0 {
				t.Fatalf("streams %d and %d matched %d of %d draws", i, j, same, len(draws[i]))
			}
		}
	}
}

func TestSubstreamMeanUniform(t *testing.T) {
	// Hash-derived seeds must still give uniform output.
	var s Summary
	for i := uint64(0); i < 2000; i++ {
		r := Substream(1234, i)
		for j := 0; j < 50; j++ {
			s.Add(r.Float64())
		}
	}
	if math.Abs(s.Mean()-0.5) > 0.01 {
		t.Errorf("substream mean = %v, want ~0.5", s.Mean())
	}
}
