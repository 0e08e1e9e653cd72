package avail

import (
	"errors"
	"math"
	"testing"

	"lightwave/internal/optics"
	"lightwave/internal/sim"
)

func TestFig15aFabricAvailability(t *testing.T) {
	// Paper: at 99.9% per-OCS availability the fabric availability is 90%
	// with CWDM4 duplex (96 OCSes), 95% with CWDM4 bidi (48), 98% with
	// CWDM8 bidi (24).
	cases := []struct {
		n    int
		want float64
	}{{96, 0.90}, {48, 0.95}, {24, 0.98}}
	for _, c := range cases {
		got := FabricAvailability(0.999, c.n)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("FabricAvailability(0.999, %d) = %.3f, want ≈%.2f", c.n, got, c.want)
		}
	}
	if FabricAvailability(0.999, 0) != 1 {
		t.Error("zero OCSes should be fully available")
	}
}

func TestOCSCountPerModule(t *testing.T) {
	cases := []struct {
		gen  string
		want int
	}{
		{"200G-CWDM4", 96},        // standard duplex
		{"2x200G-bidi-CWDM4", 48}, // the production choice
		{"800G-bidi-CWDM8", 24},
	}
	for _, c := range cases {
		g, err := optics.GenerationByName(c.gen)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OCSCount(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("OCSCount(%s) = %d, want %d", c.gen, got, c.want)
		}
	}
}

func TestOCSCountBadModule(t *testing.T) {
	g := optics.Generation{Name: "weird", Grid: optics.Grid{Channels: []float64{1, 2, 3}}}
	if _, err := OCSCount(g); !errors.Is(err, ErrBadModule) {
		t.Fatalf("err = %v", err)
	}
}

func TestFig15bHeadlineNumbers(t *testing.T) {
	// §4.2.2: "for a server availability of 99.9%, the static configuration
	// can only support a 1024 TPU slice size with 25% goodput, whereas the
	// reconfigurable superpod can support 1024 slice size with 75% goodput."
	p := DefaultPod(0.999)
	const k = 16 // 1024 TPUs = 16 cubes
	if g := p.Goodput(k, false); math.Abs(g-0.25) > 1e-9 {
		t.Errorf("static goodput = %v, want 0.25", g)
	}
	if g := p.Goodput(k, true); math.Abs(g-0.75) > 1e-9 {
		t.Errorf("reconfigurable goodput = %v, want 0.75", g)
	}
}

func TestFig15bConvergenceAt1024(t *testing.T) {
	// "At a slice size of 1024, this leads to the convergence of the
	// goodput for a server availability of 99.9% with ... 99.5%" (both 75%)
	// while 99% supports "only two 1024 slices with a goodput of 50%".
	if g := DefaultPod(0.995).Goodput(16, true); math.Abs(g-0.75) > 1e-9 {
		t.Errorf("99.5%% goodput = %v, want 0.75", g)
	}
	if g := DefaultPod(0.99).Goodput(16, true); math.Abs(g-0.50) > 1e-9 {
		t.Errorf("99%% goodput = %v, want 0.50", g)
	}
}

func TestFig15bHalfPodSlice(t *testing.T) {
	// "At a slice size of 2048 ... only one slice can be composed—leading
	// to a goodput of 50%—regardless of the server/host availability."
	for _, a := range []float64{0.99, 0.995, 0.999} {
		if g := DefaultPod(a).Goodput(32, true); math.Abs(g-0.50) > 1e-9 {
			t.Errorf("avail %v: 2048-slice goodput = %v, want 0.50", a, g)
		}
	}
}

func TestGoodputMonotoneInServerAvailability(t *testing.T) {
	// Fig 15b: "As the server availability increases ... the goodput
	// increases because fewer elemental cubes need to be held back."
	for _, k := range []int{1, 4, 16} {
		prev := -1.0
		for _, a := range []float64{0.99, 0.995, 0.999, 0.9999} {
			g := DefaultPod(a).Goodput(k, true)
			if g < prev {
				t.Fatalf("k=%d: goodput fell from %v to %v at avail %v", k, prev, g, a)
			}
			prev = g
		}
	}
}

func TestStaticNeverBeatsReconfigurable(t *testing.T) {
	for _, a := range []float64{0.99, 0.995, 0.999} {
		p := DefaultPod(a)
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			if p.Goodput(k, false) > p.Goodput(k, true) {
				t.Fatalf("avail %v k=%d: static beats reconfigurable", a, k)
			}
		}
	}
}

func TestSingleCubeSliceEqualForBothFabrics(t *testing.T) {
	// "For a slice that is a single cube, no reconfiguration between cubes
	// is used and thus the goodput is the same for both" fabrics.
	for _, a := range []float64{0.99, 0.995, 0.999} {
		p := DefaultPod(a)
		if p.Goodput(1, true) != p.Goodput(1, false) {
			t.Fatalf("avail %v: single-cube goodputs differ", a)
		}
	}
}

func TestStaticDegradesRapidlyWithSliceSize(t *testing.T) {
	// The dashed static lines of Fig 15b fall much faster than the solid
	// reconfigurable ones.
	p := DefaultPod(0.999)
	staticDrop := p.Goodput(1, false) - p.Goodput(16, false)
	reconfDrop := p.Goodput(1, true) - p.Goodput(16, true)
	if staticDrop <= reconfDrop {
		t.Fatalf("static drop %v not worse than reconfigurable %v", staticDrop, reconfDrop)
	}
}

func TestHoldBackProportionalToFailureRate(t *testing.T) {
	// "The number of elemental cubes that are held back is directly
	// proportional to the failure rate of an individual server."
	h1 := DefaultPod(0.999).HoldBack()
	h2 := DefaultPod(0.995).HoldBack()
	h3 := DefaultPod(0.99).HoldBack()
	if !(h1 < h2 && h2 < h3) {
		t.Fatalf("holdback not increasing: %d %d %d", h1, h2, h3)
	}
	// Roughly linear: failure rate ratios 1:5:10 → holdback within 2× of
	// proportionality.
	if h3 < 5*h1 || h3 > 20*h1 {
		t.Errorf("holdback %d vs %d not roughly proportional to failure rate", h3, h1)
	}
}

func TestCubeAvail(t *testing.T) {
	p := DefaultPod(0.999)
	want := math.Pow(0.999, 24)
	if math.Abs(p.CubeAvail()-want) > 1e-12 {
		t.Fatalf("CubeAvail = %v", p.CubeAvail())
	}
}

func TestSliceSizeBounds(t *testing.T) {
	p := DefaultPod(0.999)
	if p.ReconfigurableSlices(0) != 0 || p.ReconfigurableSlices(65) != 0 {
		t.Error("degenerate k not rejected")
	}
	if p.StaticSlices(0) != 0 || p.StaticSlices(65) != 0 {
		t.Error("degenerate k not rejected for static")
	}
}

func TestBinomialSurvival(t *testing.T) {
	// P(X>=1), X~Bin(2, 0.5) = 0.75.
	if got := binomialSurvival(sim.LogChooseTable(2), 0.5, 1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("got %v", got)
	}
	ten := sim.LogChooseTable(10)
	if binomialSurvival(ten, 0.5, 0) != 1 {
		t.Error("m=0 should be certain")
	}
	if binomialSurvival(ten, 0.5, 11) != 0 {
		t.Error("m>n should be impossible")
	}
	if binomialSurvival(ten, 0, 1) != 0 || binomialSurvival(ten, 1, 10) != 1 {
		t.Error("degenerate probabilities wrong")
	}
}

func TestMonteCarloAgreesWithAnalytic(t *testing.T) {
	rng := sim.NewRand(7)
	for _, a := range []float64{0.99, 0.999} {
		p := DefaultPod(a)
		for _, k := range []int{1, 16, 32} {
			for _, reconf := range []bool{true, false} {
				mc := p.MonteCarloGoodput(k, reconf, 4000, rng.Split())
				an := p.Goodput(k, reconf)
				if mc != an {
					t.Fatalf("avail %v k=%d reconf=%v: MC %v != analytic %v (advertised capacity not deliverable)",
						a, k, reconf, mc, an)
				}
			}
		}
	}
}
