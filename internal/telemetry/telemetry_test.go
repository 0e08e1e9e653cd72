package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatal("zero gauge not 0")
	}
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Fatalf("Value = %v", g.Value())
	}
}

func TestDistributionBuckets(t *testing.T) {
	d := NewDistribution(1, 2, 3)
	for _, v := range []float64{0.5, 1.5, 2.5, 10} {
		d.Observe(v)
	}
	s := d.Snapshot()
	want := []int64{1, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("Counts = %v, want %v", s.Counts, want)
		}
	}
	if s.N != 4 || s.Min != 0.5 || s.Max != 10 {
		t.Errorf("snapshot = %+v", s)
	}
	if math.Abs(s.Mean-14.5/4) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
}

func TestDistributionBoundaryGoesToLowerBucket(t *testing.T) {
	// A sample exactly on a bound belongs to the bucket whose upper bound it
	// is (SearchFloat64s returns the index of the first bound >= v).
	d := NewDistribution(1, 2)
	d.Observe(1)
	s := d.Snapshot()
	if s.Counts[0] != 1 {
		t.Fatalf("Counts = %v", s.Counts)
	}
}

func TestDistributionUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewDistribution(2, 1)
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name returned different counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counters not shared")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	r.Gauge("x")
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Gauge("a")
	r.Distribution("c", 1, 2)
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names = %v", names)
	}
}

// records decodes the JSON records a slog.JSONHandler wrote to b.
func records(t *testing.T, b *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for dec := json.NewDecoder(bytes.NewReader(b.Bytes())); dec.More(); {
		var r map[string]any
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func TestDetectorHardLimit(t *testing.T) {
	var buf bytes.Buffer
	d := NewDetector(slog.New(slog.NewJSONHandler(&buf, nil)).With("link", "ber"))
	d.HardLimit = 2e-4
	if !d.Observe(3e-4) {
		t.Fatal("hard-limit breach not flagged")
	}
	recs := records(t, &buf)
	if len(recs) != 1 || recs[0]["level"] != "ERROR" {
		t.Fatalf("records = %v", recs)
	}
	if recs[0]["link"] != "ber" || recs[0]["value"] != 3e-4 || recs[0]["limit"] != 2e-4 {
		t.Errorf("attributes = %v", recs[0])
	}
}

func TestDetectorAdaptive(t *testing.T) {
	var buf bytes.Buffer
	d := NewDetector(slog.New(slog.NewJSONHandler(&buf, nil)))
	// Establish a baseline around 1.5 with small spread.
	vals := []float64{1.4, 1.5, 1.6, 1.5, 1.45, 1.55, 1.5, 1.48, 1.52, 1.5,
		1.47, 1.53, 1.5, 1.49, 1.51, 1.5, 1.5, 1.5, 1.5, 1.5}
	for _, v := range vals {
		if d.Observe(v) {
			t.Fatalf("baseline sample %v flagged", v)
		}
	}
	if !d.Observe(3.0) {
		t.Fatal("6-sigma excursion not flagged")
	}
	if recs := records(t, &buf); len(recs) != 1 || recs[0]["level"] != "WARN" || recs[0]["value"] != 3.0 {
		t.Fatalf("records = %v", recs)
	}
}

func TestDetectorWarmupSuppresses(t *testing.T) {
	d := NewDetector(nil)
	// Before warmup no adaptive alerts fire even for wild swings.
	for _, v := range []float64{1, 100, 1, 100, 1} {
		if d.Observe(v) {
			t.Fatal("alert during warmup")
		}
	}
}

func TestDetectorAnomalyDoesNotPolluteBaseline(t *testing.T) {
	d := NewDetector(nil)
	d.Warmup = 4
	for i := 0; i < 20; i++ {
		d.Observe(1.0 + 0.01*float64(i%3))
	}
	mBefore, _ := d.Baseline()
	d.Observe(50) // anomalous
	mAfter, _ := d.Baseline()
	if mBefore != mAfter {
		t.Fatalf("anomaly shifted baseline %v -> %v", mBefore, mAfter)
	}
}

func TestDetectorNilSink(t *testing.T) {
	d := NewDetector(nil)
	d.HardLimit = 1
	if !d.Observe(2) {
		t.Fatal("a detector with no logger should still flag")
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("reconfigs").Add(5)
	r.Gauge("margin").Set(2.5)
	d := r.Distribution("loss", 1, 2)
	d.Observe(0.5)
	d.Observe(1.5)
	text := r.Text()
	for _, want := range []string{
		"reconfigs 5\n",
		"margin 2.5\n",
		"loss_count 2\n",
		`loss_bucket{le="1"} 1`,
		`loss_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestWriteTextEmptyRegistry(t *testing.T) {
	if got := NewRegistry().Text(); got != "" {
		t.Fatalf("empty registry exposition = %q", got)
	}
}

func TestWriteTextSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz")
	r.Counter("aa")
	text := r.Text()
	if strings.Index(text, "aa") > strings.Index(text, "zz") {
		t.Fatal("exposition not sorted")
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reconfigs").Add(7)
	r.Gauge("queue_depth").Set(3)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "reconfigs 7\n") || !strings.Contains(body, "queue_depth 3\n") {
		t.Fatalf("body:\n%s", body)
	}
}

// TestServeMetricsMountsPprof verifies the debug listener serves both the
// exposition and the pprof handlers: the profiling endpoints must only
// exist behind the opt-in metrics port, and must actually be there when it
// is enabled (the profile-dcn workflow depends on them for live daemons).
func TestServeMetricsMountsPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("reconfigs").Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lis, err := r.ServeMetrics(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + lis.Addr().String()
	for _, path := range []string{"/metrics", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, body)
		}
	}
}
