package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.N() != 0 {
		t.Error("empty summary not zero")
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRand(seed)
		n := 100
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = r.NormFloat64()*3 + 10
			s.Add(xs[i])
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return math.Abs(s.Mean()-Mean(xs)) < 1e-9 && s.Min() == lo && s.Max() == hi
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0.5)
	h.Add(9.5)
	h.Add(5.0)
	if h.Counts[0] != 1 || h.Counts[9] != 1 || h.Counts[5] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(5)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("out-of-range values not clamped: %v", h.Counts)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if c := h.BinCenter(0); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("BinCenter(0) = %v", c)
	}
	if c := h.BinCenter(9); math.Abs(c-9.5) > 1e-12 {
		t.Errorf("BinCenter(9) = %v", c)
	}
}

func TestHistogramFraction(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if h.Fraction(0) != 0 {
		t.Error("fraction of empty histogram should be 0")
	}
	h.Add(0.25)
	h.Add(0.25)
	h.Add(0.75)
	if f := h.Fraction(0); math.Abs(f-2.0/3) > 1e-12 {
		t.Errorf("Fraction(0) = %v", f)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(1, 0, 10)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); math.Abs(p-5.5) > 1e-12 {
		t.Errorf("p50 = %v", p)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of empty slice should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4}); m != 3 {
		t.Errorf("Mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestLogChooseTable(t *testing.T) {
	// Row 5 of Pascal's triangle.
	for k, want := range []float64{1, 5, 10, 10, 5, 1} {
		if got := math.Exp(LogChooseTable(5)[k]); math.Abs(got-want) > 1e-9 {
			t.Errorf("C(5,%d) = %v, want %v", k, got, want)
		}
	}
	// Every entry is the three-Lgamma expression, bit for bit, and large
	// rows stay finite (C(544,272) overflows float64 outside the log
	// domain).
	const n = 544
	tab := LogChooseTable(n)
	if len(tab) != n+1 {
		t.Fatalf("len = %d, want %d", len(tab), n+1)
	}
	for k, got := range tab {
		a, _ := math.Lgamma(float64(n + 1))
		b, _ := math.Lgamma(float64(k + 1))
		c, _ := math.Lgamma(float64(n - k + 1))
		if want := a - b - c; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ln C(%d,%d) = %v, want %v", n, k, got, want)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("ln C(%d,%d) = %v", n, k, got)
		}
	}
	if got := LogChooseTable(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("LogChooseTable(0) = %v, want [0]", got)
	}
}
