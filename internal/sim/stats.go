package sim

import (
	"math"
	"sort"
)

// Summary accumulates streaming summary statistics. The zero value is an
// empty summary.
type Summary struct {
	n        int
	mean     float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.mean += (x - s.mean) / float64(s.n)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the range
// are clamped into the first/last bin so tails remain visible.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram returns a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("sim: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Fraction returns the fraction of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Percentile returns the p-th percentile (p in [0,100]) of xs, interpolating
// linearly between order statistics. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile of an ascending xs, which it leaves as
// it is.
func PercentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	pos := p / 100 * float64(len(xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(xs) {
		return xs[i]
	}
	return xs[i]*(1-frac) + xs[i+1]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LogChooseTable returns ln C(n, k) for k = 0..n, each entry the lgamma
// expression lnΓ(n+1) − lnΓ(k+1) − lnΓ(n−k+1). A log-domain binomial tail
// over a fixed n (the RS(n,k) transfer curve, the k-of-n availability sums)
// builds the table once instead of paying three Lgamma calls per term.
func LogChooseTable(n int) []float64 {
	lg := make([]float64, n+1) // lg[j] = lnΓ(j+1) = ln j!
	for j := range lg {
		lg[j], _ = math.Lgamma(float64(j + 1))
	}
	t := make([]float64, n+1)
	for k := range t {
		t[k] = lg[n] - lg[k] - lg[n-k]
	}
	return t
}
