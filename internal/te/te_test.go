package te

import (
	"errors"
	"math"
	"testing"

	"lightwave/internal/dcn"
	"lightwave/internal/telemetry"
)

func TestCollectorRollReturnsRates(t *testing.T) {
	c, err := NewCollector(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(0, 1, 100)
	c.Observe(0, 1, 50)
	c.Observe(2, 3, 30)
	// Garbage that must be ignored, not crash or count.
	c.Observe(-1, 2, 10)
	c.Observe(0, 9, 10)
	c.Observe(1, 1, 10)
	c.Observe(0, 2, -5)
	c.Observe(0, 2, math.NaN())
	c.Observe(0, 2, math.Inf(1))

	m := c.Roll()
	if got := m[0][1]; got != 15 {
		t.Errorf("rate[0][1] = %g, want 15", got)
	}
	if got := m[2][3]; got != 3 {
		t.Errorf("rate[2][3] = %g, want 3", got)
	}
	if got := m[0][2]; got != 0 {
		t.Errorf("rate[0][2] = %g, want 0 (garbage observations must be dropped)", got)
	}
	// Roll resets.
	m = c.Roll()
	if got := m[0][1]; got != 0 {
		t.Errorf("after reset rate[0][1] = %g, want 0", got)
	}
}

func TestCollectorObserveRatesValidates(t *testing.T) {
	c, err := NewCollector(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := dcn.UniformDemand(3, 1)
	bad[0][1] = math.NaN()
	if err := c.ObserveRates(bad); !errors.Is(err, ErrMatrix) {
		t.Fatalf("NaN rate: err = %v, want ErrMatrix", err)
	}
	if err := c.ObserveRates([][]float64{{0, 1}}); !errors.Is(err, ErrMatrix) {
		t.Fatalf("wrong shape: err = %v, want ErrMatrix", err)
	}
	ok := dcn.UniformDemand(3, 7)
	if err := c.ObserveRates(ok); err != nil {
		t.Fatal(err)
	}
	m := c.Roll()
	if got := m[0][1]; got != 7 {
		t.Errorf("rate[0][1] = %g, want 7", got)
	}
}

func TestCollectorConfigErrors(t *testing.T) {
	if _, err := NewCollector(1, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("1 block: err = %v, want ErrConfig", err)
	}
	if _, err := NewCollector(4, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("zero epoch: err = %v, want ErrConfig", err)
	}
}

func TestPredictorTracksSteadyDemand(t *testing.T) {
	p, err := NewPredictor(3, PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	obs := dcn.UniformDemand(3, 100)
	for e := 0; e < 30; e++ {
		if _, err := p.Update(obs); err != nil {
			t.Fatal(err)
		}
	}
	pred := p.Predict()
	for i := range pred {
		for j := range pred[i] {
			if i == j {
				continue
			}
			if math.Abs(pred[i][j]-100) > 5 {
				t.Fatalf("pred[%d][%d] = %g, want ~100", i, j, pred[i][j])
			}
		}
	}
	// Error of a converged prediction against the same steady matrix is ~0.
	st, err := p.Update(obs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Error < 0 || st.Error > 0.05 {
		t.Errorf("steady-state prediction error = %g, want ~0", st.Error)
	}
}

func TestPredictorBurstHedgesWithoutPoisoningBaseline(t *testing.T) {
	p, err := NewPredictor(2, PredictorConfig{Warmup: 4})
	if err != nil {
		t.Fatal(err)
	}
	steady := dcn.UniformDemand(2, 100)
	for e := 0; e < 20; e++ {
		if _, err := p.Update(steady); err != nil {
			t.Fatal(err)
		}
	}
	burst := dcn.UniformDemand(2, 100)
	burst[0][1] = 1000
	st, err := p.Update(burst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bursts == 0 {
		t.Fatal("10x spike not flagged as a burst")
	}
	pred := p.Predict()
	if pred[0][1] < 900 {
		t.Errorf("post-burst pred[0][1] = %g, want >= 900 (peak hold)", pred[0][1])
	}
	// The detector's baseline must not have been taught the burst: after
	// the peak decays away, the prediction returns near the steady rate.
	for e := 0; e < 40; e++ {
		if _, err := p.Update(steady); err != nil {
			t.Fatal(err)
		}
	}
	pred = p.Predict()
	if math.Abs(pred[0][1]-100) > 10 {
		t.Errorf("post-decay pred[0][1] = %g, want ~100 (baseline unpoisoned)", pred[0][1])
	}
}

func TestPredictorRejectsBadShape(t *testing.T) {
	p, err := NewPredictor(3, PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Update([][]float64{{0, 1}}); !errors.Is(err, ErrMatrix) {
		t.Fatalf("err = %v, want ErrMatrix", err)
	}
	if _, err := NewPredictor(1, PredictorConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("1 block: err = %v, want ErrConfig", err)
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	old := Registry()
	defer SetRegistry(old)
	r := telemetry.NewRegistry()
	SetRegistry(r)
	if Registry() != r {
		t.Fatal("SetRegistry did not take")
	}
	SetRegistry(nil)
	if Registry() == nil {
		t.Fatal("SetRegistry(nil) must install a fresh registry, not nil")
	}
}
