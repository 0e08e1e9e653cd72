package avail

import (
	"errors"
	"math"
	"testing"

	"lightwave/internal/sim"
)

func timelineParams(reconf bool) TimelineParams {
	return TimelineParams{
		Pod:            DefaultPod(0.999),
		SliceCubes:     16,
		Reconfigurable: reconf,
		MTTRHours:      8,
		ReconfigHours:  0.01,
		Years:          30,
	}
}

func TestTimelineReconfigurableMeetsTarget(t *testing.T) {
	res, err := SimulateTimeline(timelineParams(true), sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.AdvertisedSlices != 3 {
		t.Fatalf("advertised = %d, want 3 (Fig 15b)", res.AdvertisedSlices)
	}
	// The static sizing promised 97% deliverability; the time-domain
	// simulation with fast swaps must meet it.
	if res.Delivered < 0.97 {
		t.Fatalf("delivered = %.4f, below the 97%% target", res.Delivered)
	}
	if res.Swaps == 0 {
		t.Fatal("no cube swaps over 30 years is implausible")
	}
}

func TestTimelineStaticWorse(t *testing.T) {
	reconf, err := SimulateTimeline(timelineParams(true), sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	static, err := SimulateTimeline(timelineParams(false), sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	// The static fabric advertises less (Fig 15b: 1 vs 3 slices) and each
	// broken slice stays down for a full repair instead of a swap.
	if static.AdvertisedSlices >= reconf.AdvertisedSlices {
		t.Fatalf("static advertised %d, reconfigurable %d",
			static.AdvertisedSlices, reconf.AdvertisedSlices)
	}
	if static.Swaps != 0 {
		t.Fatal("static fabric cannot swap")
	}
	// Per-advertised-slice delivery: static loses full repair windows.
	if static.Delivered >= reconf.Delivered {
		t.Fatalf("static delivered %.4f not worse than reconfigurable %.4f",
			static.Delivered, reconf.Delivered)
	}
}

func TestTimelineValidation(t *testing.T) {
	p := timelineParams(true)
	p.Years = 0
	if _, err := SimulateTimeline(p, nil); !errors.Is(err, ErrTimeline) {
		t.Errorf("err = %v", err)
	}
	p = timelineParams(true)
	p.MTTRHours = 0
	if _, err := SimulateTimeline(p, nil); !errors.Is(err, ErrTimeline) {
		t.Errorf("err = %v", err)
	}
}

func TestTimelineZeroAdvertised(t *testing.T) {
	p := timelineParams(true)
	p.SliceCubes = 64 // cannot promise a full pod at 97%
	res, err := SimulateTimeline(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdvertisedSlices != 0 || res.Delivered != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestTimelineDeterministic(t *testing.T) {
	a, _ := SimulateTimeline(timelineParams(true), sim.NewRand(9))
	b, _ := SimulateTimeline(timelineParams(true), sim.NewRand(9))
	if a.Failures != b.Failures || a.Delivered != b.Delivered {
		t.Fatal("same seed produced different timelines")
	}
}

// Time-domain validation of the Fig 15b sizing: cubes fail and repair as
// continuous-time processes, and the pod continuously tries to keep its
// advertised slices composed. Delivered availability — the fraction of
// time all advertised slices are up — must meet the target the static
// binomial sizing promised. The reconfigurable fabric recomposes a broken
// slice from any healthy spare cube after a reconfiguration delay; the
// static fabric must wait for the repair of the exact failed cube. Only
// tests run it: it is the oracle for PodModel's binomial sizing.

// TimelineParams drives the continuous-time simulation.
type TimelineParams struct {
	Pod PodModel
	// SliceCubes is the advertised slice size in cubes.
	SliceCubes int
	// Reconfigurable selects cube-swap repair.
	Reconfigurable bool
	// MTTRHours is the mean cube repair time; the failure rate is derived
	// from the pod's CubeAvail (unavailability = rate·MTTR).
	MTTRHours float64
	// ReconfigHours is the time to recompose a slice on the lightwave
	// fabric (milliseconds in reality; kept as a parameter).
	ReconfigHours float64
	// Years simulated.
	Years float64
}

// TimelineResult reports delivered availability.
type TimelineResult struct {
	AdvertisedSlices int
	// Delivered is the time-average fraction of advertised slices that
	// were actually up.
	Delivered float64
	// AllUpFraction is the fraction of time every advertised slice was up.
	AllUpFraction float64
	Failures      int
	Swaps         int
}

// ErrTimeline is returned for degenerate parameters.
var ErrTimeline = errors.New("avail: invalid timeline parameters")

// SimulateTimeline runs the continuous-time model.
func SimulateTimeline(p TimelineParams, rng *sim.Rand) (TimelineResult, error) {
	if p.Years <= 0 || p.MTTRHours <= 0 || p.SliceCubes <= 0 {
		return TimelineResult{}, ErrTimeline
	}
	if rng == nil {
		rng = sim.NewRand(0x71E)
	}
	var res TimelineResult
	if p.Reconfigurable {
		res.AdvertisedSlices = p.Pod.ReconfigurableSlices(p.SliceCubes)
	} else {
		res.AdvertisedSlices = p.Pod.StaticSlices(p.SliceCubes)
	}
	if res.AdvertisedSlices == 0 {
		return res, nil
	}

	// Per-cube failure rate from steady-state availability, via the
	// shared Rates table (A = MTBF/(MTBF+MTTR) → MTBF = MTTR·A/(1−A)).
	mtbf := Rates{CubeMTTRHours: p.MTTRHours}.CubeMTBFHours(p.Pod.CubeAvail())
	horizon := p.Years * 8766

	n := p.Pod.Cubes
	healthy := make([]bool, n)
	for i := range healthy {
		healthy[i] = true
	}
	// sliceOf[c] = slice index using cube c, or -1.
	sliceOf := make([]int, n)
	for i := range sliceOf {
		sliceOf[i] = -1
	}
	next := 0
	for s := 0; s < res.AdvertisedSlices; s++ {
		for k := 0; k < p.SliceCubes; k++ {
			sliceOf[next] = s
			next++
		}
	}
	brokenSlices := map[int]int{} // slice -> missing cubes

	var q sim.Queue
	upIntegral := 0.0
	deliveredIntegral := 0.0
	lastT := 0.0
	account := func() {
		now := float64(q.Now())
		dt := now - lastT
		lastT = now
		up := res.AdvertisedSlices - len(brokenSlices)
		deliveredIntegral += float64(up) * dt
		if len(brokenSlices) == 0 {
			upIntegral += dt
		}
	}

	tryRecompose := func(s int) {
		// Find healthy unassigned cubes to fill the slice's holes.
		need := brokenSlices[s]
		for c := 0; c < n && need > 0; c++ {
			if healthy[c] && sliceOf[c] == -1 {
				sliceOf[c] = s
				need--
				res.Swaps++
			}
		}
		if need == 0 {
			delete(brokenSlices, s)
		} else {
			brokenSlices[s] = need
		}
	}

	var failCube func()
	failCube = func() {
		account()
		c := rng.Intn(n)
		if healthy[c] {
			healthy[c] = false
			res.Failures++
			if s := sliceOf[c]; s >= 0 {
				sliceOf[c] = -1
				brokenSlices[s]++
				if p.Reconfigurable {
					s := s
					q.After(p.ReconfigHours, func() {
						account()
						tryRecompose(s)
					})
				} else {
					// Static: the slice waits for this exact cube.
					cc, ss := c, s
					q.After(rng.ExpFloat64()*p.MTTRHours, func() {
						account()
						healthy[cc] = true
						sliceOf[cc] = ss
						brokenSlices[ss]--
						if brokenSlices[ss] == 0 {
							delete(brokenSlices, ss)
						}
					})
					// Schedule next failure and return: repair handled above.
					q.After(rng.ExpFloat64()*mtbf/float64(n), failCube)
					return
				}
			}
			// Reconfigurable (or spare cube): generic repair returns the
			// cube to the healthy pool.
			cc := c
			q.After(rng.ExpFloat64()*p.MTTRHours, func() {
				account()
				healthy[cc] = true
				// On the reconfigurable fabric a broken slice may be
				// waiting for capacity. Pick the lowest-numbered broken
				// slice: map iteration order is randomized, and letting it
				// choose would make the timeline differ run-to-run.
				if p.Reconfigurable {
					waiting := -1
					for s, miss := range brokenSlices {
						if miss > 0 && (waiting < 0 || s < waiting) {
							waiting = s
						}
					}
					if waiting >= 0 {
						tryRecompose(waiting)
					}
				}
			})
		}
		q.After(rng.ExpFloat64()*mtbf/float64(n), failCube)
	}
	q.After(rng.ExpFloat64()*mtbf/float64(n), failCube)

	q.RunUntil(sim.Time(horizon))
	account()

	res.Delivered = deliveredIntegral / (float64(res.AdvertisedSlices) * horizon)
	res.AllUpFraction = upIntegral / horizon
	return res, nil
}

// Rates is the per-component failure/repair rate table the
// continuous-time timeline oracle (timeline_test.go) draws from. The
// numbers are calibrated against the paper's operational story: cube
// repairs are day-scale server operations (§4.3), a whole OCS chassis
// delivers >99.98% availability with an 8h field-repair SLO (§4.1.1 and
// ocs.DefaultReliability), and transceiver/circuit impairments are
// transient events handled by telemetry and drains (§3.2.2, §3.4).
type Rates struct {
	// CubeMTTRHours is the mean elemental-cube repair time.
	CubeMTTRHours float64
	// OCSMTBFHours and OCSRepairHours describe whole-chassis failure:
	// with an 8h repair and >99.98% availability, MTBF ≈ 8·A/(1−A) ≈
	// 40000h (consistent with ocs.DefaultReliability's FRU model).
	OCSMTBFHours   float64
	OCSRepairHours float64
	// TransceiverBERPerHour is the per-trunk rate of transient BER
	// degradations (dirty connector, marginal module) that trip the
	// 2e-4 KP4 hard limit.
	TransceiverBERPerHour float64
	// CircuitFlapPerHour is the per-trunk rate of short circuit flaps
	// (fiber bumps, brief loss-of-light).
	CircuitFlapPerHour float64
	// FlapMeanSeconds is the mean duration of a flap or BER episode.
	FlapMeanSeconds float64
	// DrainStuckProb is the probability that an injected drain workflow
	// wedges and never undrains on its own (operator intervention).
	DrainStuckProb float64
	// PodBackendMTBFHours is the MTBF of a pod's control backend (pod
	// manager / CSM path); repair takes CubeMTTRHours.
	PodBackendMTBFHours float64
	// OCSMaintenancePerYear is the planned per-OCS maintenance-drain
	// rate (matches ocs.DefaultReliability).
	OCSMaintenancePerYear float64
}

// DefaultRates returns the calibrated table.
func DefaultRates() Rates {
	return Rates{
		CubeMTTRHours:         24,
		OCSMTBFHours:          40000,
		OCSRepairHours:        8,
		TransceiverBERPerHour: 1.0 / 2000,
		CircuitFlapPerHour:    1.0 / 500,
		FlapMeanSeconds:       90,
		DrainStuckProb:        0.02,
		PodBackendMTBFHours:   20000,
		OCSMaintenancePerYear: 1.5,
	}
}

// CubeMTBFHours derives the per-cube MTBF from a steady-state
// availability: A = MTBF/(MTBF+MTTR) → MTBF = MTTR·A/(1−A). The
// timeline Monte Carlo uses this to turn PodModel.CubeAvail into a
// failure rate; a ≥ 1 returns +Inf (a cube that never fails).
func (r Rates) CubeMTBFHours(a float64) float64 {
	if a >= 1 {
		return math.Inf(1)
	}
	return r.CubeMTTRHours * a / (1 - a)
}
