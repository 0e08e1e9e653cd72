package collective

import (
	"math"
	"testing"
)

func TestAsymmetricMatchesSymmetricWhenUniform(t *testing.T) {
	dims := []int{8, 16}
	link := ICILink()
	sym := Torus{Dims: dims, Link: link}
	asym := AsymmetricTorus{Dims: dims, Links: []Link{link, link}}
	a, err := sym.AllReduceTime(1e8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := asym.AllReduceTime(1e8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b)/a > 1e-12 {
		t.Fatalf("asymmetric with uniform links %v != symmetric %v", b, a)
	}
}

func TestAsymmetricSlowDimensionDominates(t *testing.T) {
	// A torus with one DCN dimension: that dimension is the bottleneck.
	at := AsymmetricTorus{
		Dims:  []int{16, 16, 4},
		Links: []Link{ICILink(), ICILink(), DCNLink()},
	}
	slow, err := at.AllReduceTime(256e6)
	if err != nil {
		t.Fatal(err)
	}
	fast := AsymmetricTorus{
		Dims:  []int{16, 16, 4},
		Links: []Link{ICILink(), ICILink(), ICILink()},
	}
	fastT, _ := fast.AllReduceTime(256e6)
	if slow <= fastT {
		t.Fatal("DCN dimension did not slow the all-reduce")
	}
	// Phase ordering matters: later phases handle shrunken shards, so a
	// trailing DCN dimension sees little data. Put the DCN dimension
	// first and it dominates outright.
	first := AsymmetricTorus{
		Dims:  []int{4, 16, 16},
		Links: []Link{DCNLink(), ICILink(), ICILink()},
	}
	dim, err := first.BottleneckDim(256e6)
	if err != nil {
		t.Fatal(err)
	}
	if dim != 0 {
		t.Fatalf("bottleneck dim = %d, want 0 (the DCN dimension)", dim)
	}
}

func TestAsymmetricValidate(t *testing.T) {
	bad := AsymmetricTorus{Dims: []int{4, 4}, Links: []Link{ICILink()}}
	if _, err := bad.AllReduceTime(1); err == nil {
		t.Fatal("mismatched dims/links accepted")
	}
	bad2 := AsymmetricTorus{Dims: []int{0}, Links: []Link{ICILink()}}
	if _, err := bad2.AllReduceTime(1); err == nil {
		t.Fatal("zero dim accepted")
	}
	if (AsymmetricTorus{Dims: []int{4, 8}, Links: []Link{ICILink(), ICILink()}}).Nodes() != 32 {
		t.Fatal("Nodes wrong")
	}
}
