package fec

import (
	"math"
	"testing"
)

func TestQFuncKnownValues(t *testing.T) {
	if got := QFunc(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Q(0) = %v", got)
	}
	// Q(1.2816) ≈ 0.1.
	if got := QFunc(1.2816); math.Abs(got-0.1) > 1e-3 {
		t.Errorf("Q(1.2816) = %v", got)
	}
	// Q(3.719) ≈ 1e-4.
	if got := QFunc(3.719); math.Abs(got-1e-4)/1e-4 > 0.02 {
		t.Errorf("Q(3.719) = %v", got)
	}
}

func TestQInvRoundTrip(t *testing.T) {
	for _, p := range []float64{0.4, 0.1, 1e-2, 1e-4, 1e-8, 1e-12} {
		q := QInv(p)
		if got := QFunc(q); math.Abs(got-p)/p > 1e-6 {
			t.Errorf("QFunc(QInv(%g)) = %g", p, got)
		}
	}
	if !math.IsInf(QInv(0), 1) {
		t.Error("QInv(0) should be +Inf")
	}
	if QInv(0.5) != 0 {
		t.Error("QInv(0.5) should be 0")
	}
}

func TestRSTransferMonotone(t *testing.T) {
	rs := NewKP4()
	prev := 0.0
	for _, p := range []float64{1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 1e-2} {
		out := rs.Transfer(p)
		if out < prev {
			t.Fatalf("transfer not monotone at p=%g", p)
		}
		prev = out
	}
}

func TestRSTransferCleansKP4Threshold(t *testing.T) {
	rs := NewKP4()
	// At the KP4 threshold the output must be effectively error-free
	// (the point of the 2e-4 specification).
	out := rs.Transfer(KP4Threshold)
	if out > 1e-13 {
		t.Errorf("post-FEC BER at threshold = %g, want < 1e-13", out)
	}
	// Well above threshold the code must visibly fail.
	if rs.Transfer(5e-3) < 1e-9 {
		t.Error("code implausibly strong at 5e-3 input")
	}
}

func TestRSTransferEdgeCases(t *testing.T) {
	rs := NewKP4()
	if rs.Transfer(0) != 0 {
		t.Error("Transfer(0) != 0")
	}
	if rs.Transfer(1) != 0.5 {
		t.Error("Transfer(1) != 0.5")
	}
}

func TestInnerTransferGain(t *testing.T) {
	it := DefaultInner()
	// The inner code must improve any operating point in the waterfall
	// region.
	for _, p := range []float64{1e-2, 1e-3, 1e-4} {
		if out := it.Transfer(p); out >= p {
			t.Errorf("inner code worsened BER at %g: %g", p, out)
		}
	}
	if it.Transfer(0) != 0 {
		t.Error("Transfer(0) != 0")
	}
	if it.Transfer(0.6) != 0.5 {
		t.Error("Transfer(>=0.5) != 0.5")
	}
}

func TestConcatenatedStrongerThanOuterAlone(t *testing.T) {
	c := NewConcatenated()
	outer := NewKP4()
	for _, p := range []float64{1e-3, 5e-4, 2e-4} {
		if c.Transfer(p) > outer.Transfer(p) {
			t.Errorf("concatenation weaker than outer alone at %g", p)
		}
	}
}

func TestConcatenatedExtendsThreshold(t *testing.T) {
	// The concatenated stack must clean an input BER well above the bare
	// KP4 threshold — that is exactly the sensitivity gain of Fig 12.
	c := NewConcatenated()
	if got := c.Transfer(2e-3); got > 1e-13 {
		t.Errorf("concatenated stack output at 2e-3 input = %g", got)
	}
}

func TestLogChoose(t *testing.T) {
	// The code's table holds the same floats the per-term lgamma
	// expression produced.
	rs := NewKP4()
	if len(rs.lnChoose) != rs.n+1 {
		t.Fatalf("table has %d entries, want %d", len(rs.lnChoose), rs.n+1)
	}
	for i, got := range rs.lnChoose {
		if want := refLogChoose(rs.n, i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ln C(%d,%d) = %v, want %v", rs.n, i, got, want)
		}
	}
	// C(544,15) computed without overflow.
	if v := rs.lnChoose[15]; math.IsInf(v, 0) || math.IsNaN(v) {
		t.Error("ln C(544,15) overflow")
	}
}
