package fec

import (
	"math"
	"testing"

	"lightwave/internal/sim"
)

// sweepBERs is a log-spaced sweep of p ∈ [1e-15, 0.5] plus the edge inputs
// every transfer function special-cases.
func sweepBERs() []float64 {
	ps := []float64{-1, 0, 5e-324, 1e-300, KP4Threshold, 0.5, 0.75, 1, 2, math.Inf(1)}
	const steps = 3000
	lo, hi := math.Log(1e-15), math.Log(0.5)
	for i := 0; i <= steps; i++ {
		p := math.Exp(lo + (hi-lo)*float64(i)/steps)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	return ps
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkTransferMatchesReference holds every stage of the chain to its
// reference body at input p, bit for bit.
func checkTransferMatchesReference(t *testing.T, c Concatenated, p float64) {
	t.Helper()
	if got, want := QInv(p), refQInv(p); !sameBits(got, want) {
		t.Errorf("QInv(%g) = %v, reference %v", p, got, want)
	}
	if got, want := c.Inner.Transfer(p), refInnerTransfer(p); !sameBits(got, want) {
		t.Errorf("InnerTransfer(%g) = %v, reference %v", p, got, want)
	}
	if got, want := c.Outer.Transfer(p), refRSTransfer(c.Outer, p); !sameBits(got, want) {
		t.Errorf("RS.Transfer(%g) = %v, reference %v", p, got, want)
	}
	if got, want := c.Transfer(p), refConcatenatedTransfer(c.Outer, p); !sameBits(got, want) {
		t.Errorf("Concatenated.Transfer(%g) = %v, reference %v", p, got, want)
	}
}

func TestTransferMatchesReference(t *testing.T) {
	c := NewConcatenated()
	for _, p := range sweepBERs() {
		checkTransferMatchesReference(t, c, p)
	}
	// A second code exercises a table of another size.
	small := &RS{n: 60, k: 40, t: 10, bits: 10, lnChoose: sim.LogChooseTable(60)}
	for _, p := range sweepBERs() {
		if got, want := small.Transfer(p), refRSTransfer(small, p); !sameBits(got, want) {
			t.Errorf("RS(60,40).Transfer(%g) = %v, reference %v", p, got, want)
		}
	}
}

// transferRoundingSlack bounds how far float rounding can push Transfer
// against its monotone trend: where the curve is nearly flat (inputs above
// ~1e-2) adjacent inputs can come out reversed by a few parts in 1e14.
const transferRoundingSlack = 1e-12

// FuzzConcatenatedTransfer checks, for arbitrary input pairs, that every
// stage matches its reference bit for bit and that the concatenated curve
// is monotone up to float rounding.
func FuzzConcatenatedTransfer(f *testing.F) {
	for _, seed := range [][2]float64{
		{0, 1}, {1e-15, 0.5}, {KP4Threshold, 2e-3}, {9.698391536781778e-3, 9.698391536781779e-3},
		{0.3013387834264537, 0.30133878342645394}, {0.49999999999999994, 0.5}, {-1, 2}, {5e-324, 1e-300},
	} {
		f.Add(seed[0], seed[1])
	}
	c := NewConcatenated()
	f.Fuzz(func(t *testing.T, a, b float64) {
		if math.IsNaN(a) || math.IsNaN(b) {
			t.Skip()
		}
		checkTransferMatchesReference(t, c, a)
		checkTransferMatchesReference(t, c, b)
		if a > b {
			a, b = b, a
		}
		if ta, tb := c.Transfer(a), c.Transfer(b); ta > tb*(1+transferRoundingSlack) {
			t.Errorf("not monotone: Transfer(%g) = %g > Transfer(%g) = %g", a, ta, b, tb)
		}
	})
}

func TestMaxInputBER(t *testing.T) {
	c := NewConcatenated()
	const target = 1e-12
	thr := c.MaxInputBER(target)
	if thr <= KP4Threshold || thr >= 0.5 {
		t.Fatalf("MaxInputBER(%g) = %g, want inside (KP4 threshold, 0.5)", target, thr)
	}
	if got := c.Transfer(thr); got > target {
		t.Errorf("Transfer(threshold) = %g > target", got)
	}
	if got := c.Transfer(math.Nextafter(thr, 1)); got <= target {
		t.Errorf("Transfer(next float above threshold) = %g ≤ target: bisection stopped early", got)
	}

	// The two predicates agree on every float within 1e5 ULP of the
	// threshold. A disagreement below the threshold would mean the new
	// form admits a link the old one rejects.
	const window = 100000
	p := thr
	for i := 0; i < window; i++ {
		p = math.Nextafter(p, 0)
	}
	low := p
	for i := 0; i <= 2*window; i++ {
		if oldReject, newReject := c.Transfer(p) > target, p > thr; oldReject != newReject {
			t.Fatalf("p = %v (threshold %v): Transfer > target is %v, p > threshold is %v",
				p, thr, oldReject, newReject)
		}
		p = math.Nextafter(p, 1)
	}
	// At the window's edges the curve has moved off the target by 100×
	// what rounding can reverse, so the window is the only place the two
	// forms could differ.
	if got := c.Transfer(low); got >= target*(1-100*transferRoundingSlack) {
		t.Errorf("Transfer(threshold − 1e5 ULP) = %g, not clear of the target", got)
	}
	if got := c.Transfer(p); got <= target*(1+100*transferRoundingSlack) {
		t.Errorf("Transfer(threshold + 1e5 ULP) = %g, not clear of the target", got)
	}

	if got := c.MaxInputBER(1); got != 0.5 {
		t.Errorf("MaxInputBER(1) = %g, want 0.5 (every input passes)", got)
	}
}
