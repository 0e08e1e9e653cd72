// Package sim provides the deterministic simulation kernel shared by the
// lightwave fabric substrates: a fast seedable random number generator and a
// discrete-event queue with a virtual clock.
//
// Every Monte-Carlo experiment in this repository (BER sweeps, availability
// studies, scheduler traces) draws randomness through sim.Rand so that runs
// are reproducible from a single seed and independent streams can be split
// without correlation.
package sim

import "math"

// Rand is a deterministic pseudo-random number generator based on the
// SplitMix64 mixing function. The zero value is a valid generator seeded
// with zero; use NewRand to seed explicitly.
//
// Rand is not safe for concurrent use and must never be shared across
// goroutines: concurrent callers would race on the state word and, worse,
// make the draw order (and therefore every downstream result) depend on
// the scheduler. Parallel simulations instead derive one independent
// substream per shard with Substream, the only sanctioned way to split a
// generator for concurrent use — substream i is a pure function of
// (seed, i), so results stay bit-identical at any worker count.
type Rand struct {
	state     uint64
	spare     float64
	haveSpare bool
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// SubstreamSeed derives the seed of substream i of a base seed by double
// SplitMix64 finalization of the pair. Two mixing rounds decorrelate the
// substream both from its siblings and from the parent's own output
// sequence (a single round would make Substream(seed, 0) collide with the
// parent's next draw).
func SubstreamSeed(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	for round := 0; round < 2; round++ {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		z += 0x9e3779b97f4a7c15
	}
	return z
}

// Substream returns the i'th deterministic substream of seed. Substreams
// with distinct indices are statistically independent of each other and of
// the stream seeded directly with seed.
func Substream(seed, i uint64) *Rand {
	return NewRand(SubstreamSeed(seed, i))
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a new generator whose stream is statistically independent of
// the receiver's. The receiver advances by one step.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64()}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal deviate using the Box-Muller
// transform. Deviates are generated in pairs; the spare is cached.
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.haveSpare = true
	return u * m
}

// ExpFloat64 returns an exponential deviate with rate 1 (mean 1).
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}
