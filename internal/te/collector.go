package te

import (
	"fmt"
	"math"
)

// Collector accumulates inter-block byte counts for the current epoch and
// rolls them into a bytes/s traffic matrix on demand — the streaming
// measurement half of the loop. It is not safe for concurrent use; the
// Loop serializes access under its own lock (matching how a block's
// switch stack reports counters to one collection point).
type Collector struct {
	blocks       int
	epochSeconds float64
	bytes        []float64 // flat src*blocks+dst accumulator
	totalBytes   float64   // lifetime total, for telemetry
	epochs       int
}

// NewCollector returns a collector for the given block count and epoch
// length.
func NewCollector(blocks int, epochSeconds float64) (*Collector, error) {
	if blocks < 2 {
		return nil, fmt.Errorf("%w: %d blocks", ErrConfig, blocks)
	}
	if epochSeconds <= 0 || math.IsNaN(epochSeconds) || math.IsInf(epochSeconds, 0) {
		return nil, fmt.Errorf("%w: epoch %g s", ErrConfig, epochSeconds)
	}
	return &Collector{
		blocks:       blocks,
		epochSeconds: epochSeconds,
		bytes:        make([]float64, blocks*blocks),
	}, nil
}

// Observe adds nbytes to the (src, dst) pair's count for the current
// epoch. Out-of-range pairs and non-positive counts are ignored — a
// malformed flow record must not wedge the collection pipeline.
func (c *Collector) Observe(src, dst int, nbytes float64) {
	if src < 0 || src >= c.blocks || dst < 0 || dst >= c.blocks || src == dst {
		return
	}
	if !(nbytes > 0) || math.IsInf(nbytes, 0) {
		return
	}
	c.bytes[src*c.blocks+dst] += nbytes
	c.totalBytes += nbytes
}

// ObserveRates integrates a full offered-rate matrix (bytes/s) over the
// epoch — the ingestion path the synthetic trace generators feed.
func (c *Collector) ObserveRates(bps [][]float64) error {
	if len(bps) != c.blocks {
		return fmt.Errorf("%w: %d rows for %d blocks", ErrMatrix, len(bps), c.blocks)
	}
	for i := range bps {
		if len(bps[i]) != c.blocks {
			return fmt.Errorf("%w: row %d has %d entries", ErrMatrix, i, len(bps[i]))
		}
		for j, v := range bps[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%w: rate[%d][%d] = %g", ErrMatrix, i, j, v)
			}
			c.Observe(i, j, v*c.epochSeconds)
		}
	}
	return nil
}

// Roll closes the current epoch: it returns the epoch's mean offered rate
// matrix (bytes/s) and resets the counters for the next epoch.
func (c *Collector) Roll() [][]float64 {
	out := make([][]float64, c.blocks)
	for i := range out {
		out[i] = make([]float64, c.blocks)
		for j := range out[i] {
			out[i][j] = c.bytes[i*c.blocks+j] / c.epochSeconds
			c.bytes[i*c.blocks+j] = 0
		}
	}
	c.epochs++
	reg := Registry()
	reg.Counter("te_collector_epochs_total").Inc()
	reg.Gauge("te_collector_bytes_total").Set(c.totalBytes)
	return out
}
