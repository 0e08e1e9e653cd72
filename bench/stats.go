package main

import "lightwave/internal/sim"

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between order statistics; 0 for an empty slice, which is
// how "no samples" reads in the output. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sim.Percentile(xs, p)
}

// tailCandidates are the percentiles a timing may be reported at besides
// its median, lowest first.
var tailCandidates = []float64{90, 99, 99.9}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never set by a
// handful of outliers. With fewer than 100 samples no tail qualifies and
// the median (50) is returned.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailCandidates {
		// 1e-9 absorbs the rounding of 100-99.9.
		if float64(n)*(100-p)/100+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

// boundary is one window edge of a measured phase: the wall clock, the
// operations completed and the process CPU time consumed so far.
type boundary struct {
	at   float64 // seconds since the phase started
	ops  int64
	cpuS float64
}

// windowRates turns consecutive boundaries into per-window operation rates
// (1/s) and CPU cost (s/op). Windows in which nothing completed are
// skipped: they carry no rate.
func windowRates(bs []boundary) (rates, cpuPerOp []float64) {
	for i := 1; i < len(bs); i++ {
		dt := bs[i].at - bs[i-1].at
		dops := bs[i].ops - bs[i-1].ops
		if dt <= 0 || dops <= 0 {
			continue
		}
		rates = append(rates, float64(dops)/dt)
		cpuPerOp = append(cpuPerOp, (bs[i].cpuS-bs[i-1].cpuS)/float64(dops))
	}
	return rates, cpuPerOp
}
