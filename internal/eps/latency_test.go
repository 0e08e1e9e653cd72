package eps

import (
	"errors"
	"math"
	"testing"
)

func TestHopLatencyGrowsWithLoad(t *testing.T) {
	ch := DCNChassis()
	prev := 0.0
	for _, load := range []float64{0, 0.3, 0.6, 0.9} {
		l, err := ch.HopLatencyUnderLoad(1500, load)
		if err != nil {
			t.Fatal(err)
		}
		if l <= prev {
			t.Fatalf("latency not increasing at load %v", load)
		}
		prev = l
	}
}

func TestHopLatencyLoadBounds(t *testing.T) {
	ch := DCNChassis()
	if _, err := ch.HopLatencyUnderLoad(1500, 1.0); !errors.Is(err, ErrLoad) {
		t.Errorf("err = %v", err)
	}
	if _, err := ch.HopLatencyUnderLoad(1500, -0.1); !errors.Is(err, ErrLoad) {
		t.Errorf("err = %v", err)
	}
}

func TestServiceTime(t *testing.T) {
	ch := DCNChassis() // 800G ports
	got := ch.ServiceTime(1500)
	want := 1500.0 * 8 / 800e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("service time = %v", got)
	}
}

func TestHundredsOfNanosecondsPerHop(t *testing.T) {
	// §3.2.1's claim: EPS hops cost hundreds of ns even moderately loaded.
	ch := DCNChassis()
	l, err := ch.HopLatencyUnderLoad(1500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if l < 100e-9 || l > 10e-6 {
		t.Fatalf("per-hop latency = %v", l)
	}
}
