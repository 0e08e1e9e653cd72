package fec

import (
	"errors"
	"fmt"

	"lightwave/internal/sim"
)

// Errors returned by the Reed-Solomon codec.
var (
	ErrCodewordLength = errors.New("fec: wrong codeword length")
	ErrMessageLength  = errors.New("fec: wrong message length")
	ErrSymbolRange    = errors.New("fec: symbol out of field range")
	ErrUncorrectable  = errors.New("fec: uncorrectable codeword")
)

// RS is a systematic Reed-Solomon code RS(n, k) over a Field, correcting up
// to t = (n-k)/2 symbol errors.
type RS struct {
	f    *Field
	n, k int
	t    int
	gen  []int // generator polynomial, ascending degree, monic
	// lnChoose[i] = ln C(n, i): the binomial weights of Transfer's tail
	// sum, which depend on the code alone.
	lnChoose []float64
}

// NewRS builds RS(n, k) over field f. n must not exceed the field's
// multiplicative group order and n-k must be even and positive.
func NewRS(f *Field, n, k int) (*RS, error) {
	if n <= k || k <= 0 || n > f.Size()-1 || (n-k)%2 != 0 {
		return nil, fmt.Errorf("fec: invalid RS(%d,%d) over GF(%d)", n, k, f.Size())
	}
	r := &RS{f: f, n: n, k: k, t: (n - k) / 2, lnChoose: sim.LogChooseTable(n)}
	// g(x) = Π_{i=0}^{2t-1} (x - α^i)
	r.gen = []int{1}
	for i := 0; i < n-k; i++ {
		r.gen = f.PolyMul(r.gen, []int{f.Exp(i), 1})
	}
	return r, nil
}

// NewKP4 returns the IEEE 802.3 "KP4" code RS(544, 514) over GF(2^10),
// t = 15, used as the outer code in the paper's concatenated FEC.
func NewKP4() *RS {
	r, err := NewRS(GF1024(), 544, 514)
	if err != nil {
		panic(err) // fixed parameters; cannot fail
	}
	return r
}

// N returns the codeword length in symbols.
func (r *RS) N() int { return r.n }

// K returns the message length in symbols.
func (r *RS) K() int { return r.k }

// T returns the symbol-error correcting capability.
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
func (r *RS) T() int { return r.t }

// Rate returns the code rate k/n.
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
func (r *RS) Rate() float64 { return float64(r.k) / float64(r.n) }

// Field returns the underlying field.
func (r *RS) Field() *Field { return r.f }

// Encode appends 2t parity symbols to msg and returns the n-symbol
// codeword laid out as [msg | parity].
func (r *RS) Encode(msg []int) ([]int, error) {
	if len(msg) != r.k {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrMessageLength, len(msg), r.k)
	}
	for _, s := range msg {
		if s < 0 || s >= r.f.Size() {
			return nil, ErrSymbolRange
		}
	}
	// Compute msg(x)·x^{2t} mod g(x) with synthetic division.
	parity := make([]int, r.n-r.k)
	for _, s := range msg {
		feedback := s ^ parity[len(parity)-1]
		copy(parity[1:], parity[:len(parity)-1])
		parity[0] = 0
		if feedback != 0 {
			for j := range parity {
				parity[j] ^= r.f.Mul(feedback, r.gen[j])
			}
		}
	}
	cw := make([]int, 0, r.n)
	cw = append(cw, msg...)
	// parity is stored with parity[0] the constant term; codeword carries
	// highest-degree parity first so that cw(x) = msg(x)·x^{2t} + rem(x).
	for i := len(parity) - 1; i >= 0; i-- {
		cw = append(cw, parity[i])
	}
	return cw, nil
}

// Decode corrects up to t symbol errors in place and returns the message
// symbols and the number of corrected errors. If more than t errors are
// present the decoder usually detects it and returns ErrUncorrectable
// (miscorrection is possible, as with any bounded-distance decoder).
func (r *RS) Decode(cw []int) (msg []int, corrected int, err error) {
	if len(cw) != r.n {
		return nil, 0, fmt.Errorf("%w: got %d, want %d", ErrCodewordLength, len(cw), r.n)
	}
	syn, allZero := r.syndromes(cw)
	if allZero {
		return cw[:r.k], 0, nil
	}
	lambda := r.berlekampMassey(syn)
	nerr := len(lambda) - 1
	if nerr == 0 || nerr > r.t {
		return nil, 0, ErrUncorrectable
	}
	positions := r.chienSearch(lambda)
	if len(positions) != nerr {
		return nil, 0, ErrUncorrectable
	}
	if err := r.forney(cw, syn, lambda, positions); err != nil {
		return nil, 0, err
	}
	// Re-check: corrected word must have zero syndromes.
	if _, zero := r.syndromes(cw); !zero {
		return nil, 0, ErrUncorrectable
	}
	return cw[:r.k], nerr, nil
}

// syndromes computes S_i = r(α^i) for i in [0, 2t). The codeword is stored
// highest-degree coefficient first (cw[0] is degree n-1).
func (r *RS) syndromes(cw []int) ([]int, bool) {
	syn := make([]int, r.n-r.k)
	allZero := true
	for i := range syn {
		x := r.f.Exp(i)
		s := 0
		for _, c := range cw {
			s = r.f.Add(r.f.Mul(s, x), c)
		}
		syn[i] = s
		if s != 0 {
			allZero = false
		}
	}
	return syn, allZero
}

// berlekampMassey returns the error-locator polynomial Λ(x), ascending
// degree, Λ(0)=1.
func (r *RS) berlekampMassey(syn []int) []int {
	f := r.f
	lambda := []int{1}
	b := []int{1}
	L := 0
	m := 1
	bb := 1
	for n := 0; n < len(syn); n++ {
		// Discrepancy d = S_n + Σ_{i=1}^{L} λ_i S_{n-i}.
		d := syn[n]
		for i := 1; i <= L && i < len(lambda); i++ {
			d ^= f.Mul(lambda[i], syn[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		// lambda' = lambda - (d/bb)·x^m·b
		scale := f.Div(d, bb)
		nl := make([]int, max(len(lambda), len(b)+m))
		copy(nl, lambda)
		for i, bi := range b {
			nl[i+m] ^= f.Mul(scale, bi)
		}
		if 2*L <= n {
			b = append([]int(nil), lambda...)
			bb = d
			L = n + 1 - L
			m = 1
		} else {
			m++
		}
		lambda = nl
	}
	// Trim trailing zeros.
	for len(lambda) > 1 && lambda[len(lambda)-1] == 0 {
		lambda = lambda[:len(lambda)-1]
	}
	return lambda
}

// chienSearch returns the codeword positions (0 = first transmitted symbol,
// i.e. degree n-1) where Λ has roots.
func (r *RS) chienSearch(lambda []int) []int {
	var pos []int
	for j := 0; j < r.n; j++ {
		// Position j corresponds to location value α^{n-1-j}; it is an
		// error location iff Λ(α^{-(n-1-j)}) = 0.
		x := r.f.Exp(-(r.n - 1 - j))
		if r.f.PolyEval(lambda, x) == 0 {
			pos = append(pos, j)
		}
	}
	return pos
}

// forney computes error magnitudes and corrects cw in place.
func (r *RS) forney(cw, syn, lambda []int, positions []int) error {
	f := r.f
	// Error evaluator Ω(x) = [S(x)·Λ(x)] mod x^{2t}.
	omega := f.PolyMul(syn, lambda)
	if len(omega) > r.n-r.k {
		omega = omega[:r.n-r.k]
	}
	// Formal derivative Λ'(x): odd-degree terms shifted down.
	deriv := make([]int, 0, len(lambda)/2+1)
	for i := 1; i < len(lambda); i += 2 {
		deriv = append(deriv, lambda[i])
	}
	for _, j := range positions {
		xinv := f.Exp(-(r.n - 1 - j)) // X_j^{-1}
		num := f.PolyEval(omega, xinv)
		// Λ'(X^-1) evaluated over even powers: Λ'(x) = Σ λ_{2i+1} x^{2i}.
		den := 0
		xinv2 := f.Mul(xinv, xinv)
		pw := 1
		for _, d := range deriv {
			den ^= f.Mul(d, pw)
			pw = f.Mul(pw, xinv2)
		}
		if den == 0 {
			return ErrUncorrectable
		}
		// e_j = X_j · Ω(X_j^{-1}) / Λ'(X_j^{-1}) for b=0 codes.
		xj := f.Exp(r.n - 1 - j)
		mag := f.Mul(xj, f.Div(num, den))
		cw[j] ^= mag
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
