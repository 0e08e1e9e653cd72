package fec

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lightwave/internal/sim"
)

// The bit-level codec below — the GF(2^10) field, the Reed-Solomon encoder
// and Berlekamp-Massey decoder, the extended-Hamming inner code with Chase-2
// decoding, the block interleaver and the concatenated Codec — was deleted
// from the package: nothing outside tests drove it (deadexport over cmd/,
// examples/ and bench/), and admission, dsp and Fig 12 read the analytic
// transfer functions in transfer.go. The floor tests that exercised it run
// against these copies until a later change retires them; no other test
// may start using them.

// Field is a finite field GF(2^m) with precomputed log/antilog tables.
type Field struct {
	m    uint  // extension degree
	size int   // 2^m
	poly int   // primitive polynomial (including x^m term)
	exp  []int // exp[i] = α^i, doubled for wraparound-free multiply
	log  []int // log[x] = i such that α^i = x; log[0] unused
}

// NewField builds GF(2^m) from the given primitive polynomial. It panics if
// the polynomial does not generate the full multiplicative group, since that
// is a programming error, not an input error.
func NewField(m uint, poly int) *Field {
	size := 1 << m
	f := &Field{m: m, size: size, poly: poly,
		exp: make([]int, 2*size), log: make([]int, size)}
	x := 1
	for i := 0; i < size-1; i++ {
		f.exp[i] = x
		if f.log[x] != 0 && x != 1 {
			panic(fmt.Sprintf("fec: polynomial %#x is not primitive for GF(2^%d)", poly, m))
		}
		f.log[x] = i
		x <<= 1
		if x&size != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		panic(fmt.Sprintf("fec: polynomial %#x is not primitive for GF(2^%d)", poly, m))
	}
	// Duplicate the table so Mul can index exp[logA+logB] directly.
	for i := size - 1; i < 2*size; i++ {
		f.exp[i] = f.exp[i-(size-1)]
	}
	return f
}

// GF1024 is the field used by the KP4 RS(544,514) code: GF(2^10) with
// primitive polynomial x^10 + x^3 + 1.
func GF1024() *Field { return NewField(10, 0x409) }

// Size returns the number of field elements, 2^m.
func (f *Field) Size() int { return f.size }

// Bits returns the extension degree m (bits per symbol).
func (f *Field) Bits() int { return int(f.m) }

// Add returns a+b (XOR in characteristic 2).
func (f *Field) Add(a, b int) int { return a ^ b }

// Mul returns a·b.
func (f *Field) Mul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a/b. It panics on division by zero.
func (f *Field) Div(a, b int) int {
	if b == 0 {
		panic("fec: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[f.log[a]-f.log[b]+f.size-1]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func (f *Field) Inv(a int) int {
	if a == 0 {
		panic("fec: inverse of zero")
	}
	return f.exp[f.size-1-f.log[a]]
}

// Exp returns α^i for any integer i (negative allowed).
func (f *Field) Exp(i int) int {
	n := f.size - 1
	i %= n
	if i < 0 {
		i += n
	}
	return f.exp[i]
}

// Log returns log_α(a). It panics if a is zero.
func (f *Field) Log(a int) int {
	if a == 0 {
		panic("fec: log of zero")
	}
	return f.log[a]
}

// PolyEval evaluates the polynomial p (coefficients in ascending degree
// order) at x by Horner's rule.
func (f *Field) PolyEval(p []int, x int) int {
	y := 0
	for i := len(p) - 1; i >= 0; i-- {
		y = f.Add(f.Mul(y, x), p[i])
	}
	return y
}

// PolyMul multiplies two polynomials over the field.
func (f *Field) PolyMul(a, b []int) []int {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]int, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= f.Mul(ai, bj)
		}
	}
	return out
}

// Errors returned by the Reed-Solomon codec.
var (
	ErrCodewordLength = errors.New("fec: wrong codeword length")
	ErrMessageLength  = errors.New("fec: wrong message length")
	ErrSymbolRange    = errors.New("fec: symbol out of field range")
	ErrUncorrectable  = errors.New("fec: uncorrectable codeword")
)

// rsCodec is a systematic Reed-Solomon codec over the slim RS the
// program keeps: its field and generator polynomial drive the encoder and
// the Berlekamp-Massey decoder.
type rsCodec struct {
	*RS
	f   *Field
	gen []int // generator polynomial, ascending degree, monic
}

// NewRS builds RS(n, k) over field f. n must not exceed the field's
// multiplicative group order and n-k must be even and positive.
func NewRS(f *Field, n, k int) (*rsCodec, error) {
	if n <= k || k <= 0 || n > f.Size()-1 || (n-k)%2 != 0 {
		return nil, fmt.Errorf("fec: invalid RS(%d,%d) over GF(%d)", n, k, f.Size())
	}
	return newRSCodec(f, &RS{n: n, k: k, t: (n - k) / 2, bits: f.Bits(), lnChoose: sim.LogChooseTable(n)}), nil
}

// newRSCodec wraps r, a code over f, with its generator polynomial
// g(x) = Π_{i=0}^{2t-1} (x - α^i).
func newRSCodec(f *Field, r *RS) *rsCodec {
	c := &rsCodec{RS: r, f: f, gen: []int{1}}
	for i := 0; i < r.n-r.k; i++ {
		c.gen = f.PolyMul(c.gen, []int{f.Exp(i), 1})
	}
	return c
}

// kp4Codec is the program's KP4 code with its encoder and decoder.
func kp4Codec() *rsCodec { return newRSCodec(GF1024(), NewKP4()) }

// N returns the codeword length in symbols.
func (r *rsCodec) N() int { return r.n }

// K returns the message length in symbols.
func (r *rsCodec) K() int { return r.k }

// T returns the symbol-error correcting capability.
func (r *rsCodec) T() int { return r.t }

// Rate returns the code rate k/n.
func (r *rsCodec) Rate() float64 { return float64(r.k) / float64(r.n) }

// Field returns the underlying field.
func (r *rsCodec) Field() *Field { return r.f }

// Encode appends 2t parity symbols to msg and returns the n-symbol
// codeword laid out as [msg | parity].
func (r *rsCodec) Encode(msg []int) ([]int, error) {
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
func (r *rsCodec) Decode(cw []int) (msg []int, corrected int, err error) {
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
func (r *rsCodec) syndromes(cw []int) ([]int, bool) {
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
func (r *rsCodec) berlekampMassey(syn []int) []int {
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
func (r *rsCodec) chienSearch(lambda []int) []int {
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
func (r *rsCodec) forney(cw, syn, lambda []int, positions []int) error {
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

// Interleaver is a rows×cols block interleaver. Concatenated FEC systems
// interleave between the inner and outer code so that a burst of inner-
// decoder failures is spread across many outer codewords; the paper's
// transceivers do the same between SFEC and KP4 framing.
type Interleaver struct {
	rows, cols int
}

// NewInterleaver returns a block interleaver of the given dimensions.
func NewInterleaver(rows, cols int) (*Interleaver, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("fec: invalid interleaver %dx%d", rows, cols)
	}
	return &Interleaver{rows: rows, cols: cols}, nil
}

// Size returns the block size rows×cols.
func (iv *Interleaver) Size() int { return iv.rows * iv.cols }

// Interleave writes the block row-major and reads it column-major.
func (iv *Interleaver) Interleave(in []int) ([]int, error) {
	if len(in) != iv.Size() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrCodewordLength, len(in), iv.Size())
	}
	out := make([]int, len(in))
	i := 0
	for c := 0; c < iv.cols; c++ {
		for r := 0; r < iv.rows; r++ {
			out[i] = in[r*iv.cols+c]
			i++
		}
	}
	return out, nil
}

// Deinterleave inverts Interleave.
func (iv *Interleaver) Deinterleave(in []int) ([]int, error) {
	if len(in) != iv.Size() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrCodewordLength, len(in), iv.Size())
	}
	out := make([]int, len(in))
	i := 0
	for c := 0; c < iv.cols; c++ {
		for r := 0; r < iv.rows; r++ {
			out[r*iv.cols+c] = in[i]
			i++
		}
	}
	return out, nil
}

// BurstSpread reports the maximum number of symbols any single row receives
// from a contiguous burst of the given length in the interleaved domain —
// the figure of merit for burst protection.
func (iv *Interleaver) BurstSpread(burst int) int {
	if burst <= 0 {
		return 0
	}
	// A contiguous burst of length L in column-major order touches each row
	// at most ceil(L/rows) times.
	return (burst + iv.rows - 1) / iv.rows
}

// Codec is the full concatenated FEC pipeline of §3.3.2 with real codecs:
// Depth outer RS codewords are bit-interleaved across each other and
// wrapped in inner extended-Hamming blocks. Interleaving across the outer
// codewords converts an inner-block decoding failure (a burst of up to N
// consecutive line bits) into a few bit errors per outer codeword — well
// inside the RS correction radius.
type Codec struct {
	Outer *rsCodec
	Inner *Hamming
	// Depth is the number of outer codewords interleaved per frame.
	Depth int
	// ChaseBits is the Chase-2 test-pattern width for soft decoding.
	ChaseBits int
}

// NewCodec returns the production-style stack: KP4 outer, (64,57) inner,
// depth-8 interleaving, 4-bit Chase decoding.
func NewCodec() (*Codec, error) {
	inner, err := NewHamming(6)
	if err != nil {
		return nil, err
	}
	return &Codec{Outer: kp4Codec(), Inner: inner, Depth: 8, ChaseBits: 4}, nil
}

// Errors returned by the codec.
var (
	ErrFrameSize  = errors.New("fec: wrong frame size")
	ErrOuterCount = errors.New("fec: wrong number of outer messages")
)

// MessageSymbols returns the payload size per frame: Depth outer messages
// of K symbols each.
func (c *Codec) MessageSymbols() int { return c.Depth * c.Outer.K() }

// outerBits is the serialized size of the interleaved outer codewords.
func (c *Codec) outerBits() int {
	return c.Depth * c.Outer.N() * c.Outer.Field().Bits()
}

// innerBlocks is the number of inner codewords per frame (payload padded
// to a whole number of blocks).
func (c *Codec) innerBlocks() int {
	return (c.outerBits() + c.Inner.K() - 1) / c.Inner.K()
}

// FrameBits returns the line-side frame length in bits.
func (c *Codec) FrameBits() int { return c.innerBlocks() * c.Inner.N() }

// Rate returns the overall code rate.
func (c *Codec) Rate() float64 {
	payload := float64(c.MessageSymbols() * c.Outer.Field().Bits())
	return payload / float64(c.FrameBits())
}

// Encode maps Depth outer messages (each Outer.K() symbols) to line bits.
func (c *Codec) Encode(messages [][]int) ([]byte, error) {
	if len(messages) != c.Depth {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrOuterCount, len(messages), c.Depth)
	}
	m := c.Outer.Field().Bits()
	serial := make([]byte, c.outerBits())
	for d, msg := range messages {
		cw, err := c.Outer.Encode(msg)
		if err != nil {
			return nil, err
		}
		// Bit-interleave: bit b of codeword d lands at position b·Depth+d.
		for i, sym := range cw {
			for bit := 0; bit < m; bit++ {
				b := byte(sym >> (m - 1 - bit) & 1)
				pos := (i*m+bit)*c.Depth + d
				serial[pos] = b
			}
		}
	}
	// Wrap in inner blocks (zero padding at the tail).
	frame := make([]byte, 0, c.FrameBits())
	data := make([]byte, c.Inner.K())
	for blk := 0; blk < c.innerBlocks(); blk++ {
		for j := range data {
			idx := blk*c.Inner.K() + j
			if idx < len(serial) {
				data[j] = serial[idx]
			} else {
				data[j] = 0
			}
		}
		cw, err := c.Inner.Encode(data)
		if err != nil {
			return nil, err
		}
		frame = append(frame, cw...)
	}
	return frame, nil
}

// DecodeHard decodes a hard-decision frame and returns the Depth messages
// plus the total number of symbol corrections performed by the outer
// decoders. An inner block that fails hard decoding is passed through
// uncorrected (its bit errors are left for the outer code).
func (c *Codec) DecodeHard(frame []byte) ([][]int, int, error) {
	llr := make([]float64, len(frame))
	for i, b := range frame {
		if b&1 == 1 {
			llr[i] = -1
		} else {
			llr[i] = 1
		}
	}
	return c.decode(frame, llr, false)
}

// DecodeSoft decodes from soft channel values (llr[i] > 0 ⇒ bit 0 more
// likely) using Chase-2 inner decoding.
func (c *Codec) DecodeSoft(llr []float64) ([][]int, int, error) {
	hard := make([]byte, len(llr))
	for i, v := range llr {
		if v < 0 {
			hard[i] = 1
		}
	}
	return c.decode(hard, llr, true)
}

func (c *Codec) decode(hard []byte, llr []float64, soft bool) ([][]int, int, error) {
	if len(hard) != c.FrameBits() {
		return nil, 0, fmt.Errorf("%w: got %d bits, want %d", ErrFrameSize, len(hard), c.FrameBits())
	}
	serial := make([]byte, c.innerBlocks()*c.Inner.K())
	n := c.Inner.N()
	for blk := 0; blk < c.innerBlocks(); blk++ {
		var data []byte
		var err error
		if soft {
			data, err = c.Inner.DecodeSoft(llr[blk*n:(blk+1)*n], c.ChaseBits)
		} else {
			cw := append([]byte(nil), hard[blk*n:(blk+1)*n]...)
			data, err = c.Inner.DecodeHard(cw)
		}
		if err != nil {
			// Detected-uncorrectable inner block: pass the raw data bits
			// through and let the outer code mop up.
			data = c.Inner.extract(hard[blk*n : (blk+1)*n])
		}
		copy(serial[blk*c.Inner.K():], data)
	}

	m := c.Outer.Field().Bits()
	msgs := make([][]int, c.Depth)
	corrected := 0
	for d := 0; d < c.Depth; d++ {
		cw := make([]int, c.Outer.N())
		for i := range cw {
			sym := 0
			for bit := 0; bit < m; bit++ {
				pos := (i*m+bit)*c.Depth + d
				sym = sym<<1 | int(serial[pos]&1)
			}
			cw[i] = sym
		}
		msg, nerr, err := c.Outer.Decode(cw)
		if err != nil {
			return nil, corrected, fmt.Errorf("fec: outer codeword %d: %w", d, err)
		}
		msgs[d] = append([]int(nil), msg...)
		corrected += nerr
	}
	return msgs, corrected, nil
}

// ExampleRS demonstrates the KP4 Reed-Solomon codec correcting symbol
// errors.
func ExampleRS() {
	rs := kp4Codec()
	msg := make([]int, rs.K())
	for i := range msg {
		msg[i] = i % 1024
	}
	cw, _ := rs.Encode(msg)

	// Corrupt 15 symbols — the code's full correction radius.
	for i := 0; i < 15; i++ {
		cw[i*30] ^= 0x3FF
	}
	_, corrected, err := rs.Decode(cw)
	fmt.Println(corrected, err)
	// Output: 15 <nil>
}

// BenchmarkAblationInterleaving compares the concatenated codec's burst
// tolerance with and without cross-codeword interleaving (depth 8 vs 1).
func BenchmarkAblationInterleaving(b *testing.B) {
	deep, err := NewCodec()
	if err != nil {
		b.Fatal(err)
	}
	shallow, err := NewCodec()
	if err != nil {
		b.Fatal(err)
	}
	shallow.Depth = 1
	rng := sim.NewRand(77)
	survive := func(c *Codec) float64 {
		msgs := make([][]int, c.Depth)
		for d := range msgs {
			msgs[d] = make([]int, c.Outer.K())
			for j := range msgs[d] {
				msgs[d][j] = rng.Intn(1024)
			}
		}
		frame, err := c.Encode(msgs)
		if err != nil {
			b.Fatal(err)
		}
		// Destroy four adjacent inner blocks (a connector-scrape burst).
		n := c.Inner.N()
		for i := 10 * n; i < 14*n; i++ {
			frame[i] ^= byte(rng.Intn(2))
		}
		if _, _, err := c.DecodeHard(frame); err != nil {
			return 0
		}
		return 1
	}
	var deepOK, shallowOK float64
	for i := 0; i < b.N; i++ {
		deepOK = survive(deep)
		shallowOK = survive(shallow)
	}
	b.ReportMetric(deepOK, "deep-interleave-survives-burst")
	b.ReportMetric(shallowOK, "depth1-survives-burst")
	if deepOK < shallowOK {
		b.Fatal("interleaving should not hurt burst tolerance")
	}
}
