package fec

import (
	"fmt"
	"math"
)

// Hamming is an extended Hamming code (2^m, 2^m − m − 1) with overall
// parity, minimum distance 4. With hard decisions it corrects single bit
// errors and detects doubles; with Chase-2 soft decoding it recovers most of
// the soft-decision coding gain, making it a faithful stand-in for the
// paper's proprietary low-latency inner SFEC (§3.3.2: "<20ns for 200Gb/s").
type Hamming struct {
	m int // parity bits (excluding the extension bit)
	n int // codeword length = 2^m
	k int // data bits = 2^m - m - 1
}

// NewHamming returns the extended Hamming code with 2^m total bits.
// m must be in [3, 16].
func NewHamming(m int) (*Hamming, error) {
	if m < 3 || m > 16 {
		return nil, fmt.Errorf("fec: invalid Hamming parameter m=%d", m)
	}
	n := 1 << m
	return &Hamming{m: m, n: n, k: n - m - 1}, nil
}

// N returns the codeword length in bits (including the extension bit).
func (h *Hamming) N() int { return h.n }

// K returns the number of data bits per codeword.
func (h *Hamming) K() int { return h.k }

// Rate returns the code rate k/n.
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
func (h *Hamming) Rate() float64 { return float64(h.k) / float64(h.n) }

// Encode maps k data bits to an n-bit codeword. The layout is the classic
// Hamming layout over positions 1..n-1 (parity at powers of two, data
// elsewhere) with the overall parity in position 0.
func (h *Hamming) Encode(data []byte) ([]byte, error) {
	if len(data) != h.k {
		return nil, fmt.Errorf("%w: got %d bits, want %d", ErrMessageLength, len(data), h.k)
	}
	cw := make([]byte, h.n)
	di := 0
	for pos := 1; pos < h.n; pos++ {
		if pos&(pos-1) == 0 {
			continue // parity position
		}
		cw[pos] = data[di] & 1
		di++
	}
	// Parity bits: parity p covers positions with bit p set.
	for p := 0; p < h.m; p++ {
		mask := 1 << p
		var x byte
		for pos := 1; pos < h.n; pos++ {
			if pos&mask != 0 && pos&(pos-1) != 0 {
				x ^= cw[pos]
			}
		}
		cw[mask] = x
	}
	// Overall parity over positions 1..n-1.
	var all byte
	for pos := 1; pos < h.n; pos++ {
		all ^= cw[pos]
	}
	cw[0] = all
	return cw, nil
}

// extract pulls the data bits out of a codeword.
func (h *Hamming) extract(cw []byte) []byte {
	data := make([]byte, 0, h.k)
	for pos := 1; pos < h.n; pos++ {
		if pos&(pos-1) != 0 {
			data = append(data, cw[pos]&1)
		}
	}
	return data
}

// syndrome returns the Hamming syndrome (error position, 0 if none) and the
// overall parity of a hard codeword.
func (h *Hamming) syndrome(cw []byte) (syn int, parity byte) {
	for pos := 1; pos < h.n; pos++ {
		if cw[pos]&1 != 0 {
			syn ^= pos
		}
	}
	for pos := 0; pos < h.n; pos++ {
		parity ^= cw[pos] & 1
	}
	return syn, parity
}

// DecodeHard decodes hard bits in place: single errors are corrected, and
// detected-uncorrectable patterns return ErrUncorrectable.
func (h *Hamming) DecodeHard(cw []byte) ([]byte, error) {
	if len(cw) != h.n {
		return nil, fmt.Errorf("%w: got %d bits, want %d", ErrCodewordLength, len(cw), h.n)
	}
	syn, parity := h.syndrome(cw)
	switch {
	case syn == 0 && parity == 0:
		// clean
	case parity == 1:
		// Odd number of errors; assume single and correct it. syn==0 with
		// odd parity means the extension bit itself flipped.
		if syn != 0 {
			cw[syn] ^= 1
		} else {
			cw[0] ^= 1
		}
	default:
		// syn != 0 with even parity: double error detected.
		return nil, ErrUncorrectable
	}
	return h.extract(cw), nil
}

// DecodeSoft runs Chase-2 decoding over soft channel values. llr[i] > 0
// means bit i is more likely 0; |llr[i]| is the reliability. The p least
// reliable positions (p = testBits) are exhaustively flipped and the
// candidate with the best correlation metric wins.
func (h *Hamming) DecodeSoft(llr []float64, testBits int) ([]byte, error) {
	if len(llr) != h.n {
		return nil, fmt.Errorf("%w: got %d values, want %d", ErrCodewordLength, len(llr), h.n)
	}
	if testBits < 0 || testBits > 16 {
		return nil, fmt.Errorf("fec: invalid Chase test bits %d", testBits)
	}
	hard := make([]byte, h.n)
	for i, v := range llr {
		if v < 0 {
			hard[i] = 1
		}
	}
	// Find the testBits least-reliable positions.
	weak := leastReliable(llr, testBits)

	bestMetric := math.Inf(1)
	var best []byte
	cand := make([]byte, h.n)
	for pattern := 0; pattern < 1<<testBits; pattern++ {
		copy(cand, hard)
		for b := 0; b < testBits; b++ {
			if pattern&(1<<b) != 0 {
				cand[weak[b]] ^= 1
			}
		}
		// Hard-decode the perturbed word to land on a codeword.
		trial := make([]byte, h.n)
		copy(trial, cand)
		if _, err := h.DecodeHard(trial); err != nil {
			continue
		}
		m := correlationMetric(llr, trial)
		if m < bestMetric {
			bestMetric = m
			best = append(best[:0], trial...)
		}
	}
	if best == nil {
		return nil, ErrUncorrectable
	}
	return h.extract(best), nil
}

// leastReliable returns the indices of the p smallest |llr| values.
func leastReliable(llr []float64, p int) []int {
	idx := make([]int, 0, p)
	for j := 0; j < p; j++ {
		best := -1
		for i, v := range llr {
			skip := false
			for _, u := range idx {
				if u == i {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			if best == -1 || math.Abs(v) < math.Abs(llr[best]) {
				best = i
			}
		}
		idx = append(idx, best)
	}
	return idx
}

// correlationMetric is the (negated) correlation between the candidate
// codeword and the soft values; lower is better.
func correlationMetric(llr []float64, cw []byte) float64 {
	m := 0.0
	for i, v := range llr {
		s := 1.0
		if cw[i] == 1 {
			s = -1.0
		}
		m -= s * v
	}
	return m
}
