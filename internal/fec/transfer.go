// Package fec models the forward-error-correction stack of the paper's
// bidi transceiver DSP (§3.3.2, Fig 12) as analytic input→output BER
// transfer functions: the standard "KP4" Reed-Solomon RS(544,514) outer
// code over 10-bit symbols, an inner soft-decision code standing in for the
// proprietary low-latency SFEC as a calibrated effective-SNR gain, and
// their concatenation, whose MaxInputBER is the threshold slice admission
// checks every circuit's pre-FEC BER against.
package fec

import (
	"math"

	"lightwave/internal/sim"
)

// KP4Threshold is the pre-FEC bit error ratio the KP4 RS(544,514) code is
// specified to clean up to effectively error-free operation (the horizontal
// dashed line in Figs 11-12 of the paper).
const KP4Threshold = 2e-4

// RS is a Reed-Solomon code RS(n, k) over bits-wide symbols, correcting up
// to t = (n-k)/2 symbol errors, as its bounded-distance transfer function.
type RS struct {
	n, k, t, bits int
	// lnChoose[i] = ln C(n, i): the binomial weights of Transfer's tail
	// sum, which depend on the code alone.
	lnChoose []float64
}

// NewKP4 returns the IEEE 802.3 "KP4" code RS(544, 514) over GF(2^10),
// t = 15, used as the outer code in the paper's concatenated FEC.
func NewKP4() *RS {
	return &RS{n: 544, k: 514, t: 15, bits: 10, lnChoose: sim.LogChooseTable(544)}
}

// RSTransfer returns the post-FEC output BER of an RS(n,k) code over
// GF(2^m) symbols for an input (channel) bit error ratio p, assuming
// independent bit errors. It uses the standard bounded-distance-decoding
// analysis with log-domain binomial tails so it stays accurate at very low
// probabilities.
func (r *RS) Transfer(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 0.5
	}
	m := float64(r.bits)
	ps := 1 - math.Pow(1-p, m) // symbol error probability
	if ps >= 1 {
		ps = 1
	}
	// Expected fraction of erroneous symbols after decoding:
	//   Σ_{i=t+1}^{n} (i/n)·C(n,i)·ps^i·(1-ps)^{n-i}
	// (the decoder fails and the i channel errors remain).
	n := r.n
	sum := 0.0
	lp := math.Log(ps)
	lq := math.Log1p(-ps)
	for i := r.t + 1; i <= n; i++ {
		lt := r.lnChoose[i] + float64(i)*lp + float64(n-i)*lq
		term := math.Exp(lt) * float64(i) / float64(n)
		sum += term
		if term < sum*1e-15 && i > r.t+3 {
			break
		}
	}
	// Convert symbol errors back to bit errors: an erroneous symbol carries
	// on average m·p/ps errored bits.
	bitsPerBadSymbol := m * p / ps
	return sum * bitsPerBadSymbol / m
}

// InnerTransfer models the inner soft-decision code of the concatenated FEC
// as an effective-SNR gain: an input BER p on the uncoded channel maps to
// the BER of a channel whose Q-factor is better by the code's net gain
// (electrical dB). The default gain is calibrated so the concatenated stack
// reproduces the paper's 1.6 dB optical sensitivity improvement at the KP4
// threshold (Fig 12).
type InnerTransfer struct {
	// qGain is the linear Q-factor gain 10^(net electrical dB / 20), fixed
	// at construction so Transfer does not redo the Pow per call.
	qGain float64
}

// DefaultInner returns the calibrated inner-code transfer. A d_min=4 code
// under soft decoding has an asymptotic gain of 10·log10(R·d_min) ≈ 5.6 dB;
// at the BER region of interest (1e-2..1e-4 input) the net effective gain
// after rate penalty is ≈ 3.2 electrical dB, which corresponds to ≈ 1.6
// optical dB for an intensity-modulated direct-detection link.
func DefaultInner() InnerTransfer {
	// gainDB is the effective electrical SNR gain of the soft inner code;
	// ratePenaltyDB accounts for its rate overhead (the same optical power
	// carries more line bits).
	gainDB, ratePenaltyDB := 3.6, 0.4
	return InnerTransfer{qGain: math.Pow(10, (gainDB-ratePenaltyDB)/20)}
}

// Transfer maps input BER to output BER.
func (it InnerTransfer) Transfer(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 0.5 {
		return 0.5
	}
	return QFunc(QInv(p) * it.qGain)
}

// Concatenated is the full receive-side FEC stack: inner soft code then
// outer RS.
type Concatenated struct {
	Inner InnerTransfer
	Outer *RS
}

// NewConcatenated returns the paper's concatenated stack: calibrated inner
// SFEC plus KP4.
func NewConcatenated() Concatenated {
	return Concatenated{Inner: DefaultInner(), Outer: NewKP4()}
}

// Transfer maps channel BER to post-FEC BER through both codes.
func (c Concatenated) Transfer(p float64) float64 {
	return c.Outer.Transfer(c.Inner.Transfer(p))
}

// MaxInputBER returns the admission threshold for a post-FEC target: the
// largest channel BER p in [0, 0.5] the bisection can find with
// Transfer(p) ≤ target. Transfer is monotone (on its steep waterfall,
// where any useful target sits, float rounding moves the output by far less
// than one input ULP does), so "Transfer(p) > target" and
// "p > MaxInputBER(target)" are the same predicate and a caller checking
// many links against one target pays for the transfer curve once. The
// bisection runs to its float fixed point: the returned p and the next
// float above it straddle the target. An input so clean that the model
// underflows to NaN counts as passing, as it does under a "> target" test.
func (c Concatenated) MaxInputBER(target float64) float64 {
	lo, hi := 0.0, 0.5 // Transfer(lo) ≤ target < Transfer(hi)
	if c.Transfer(hi) <= target {
		return hi
	}
	for {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			return lo
		}
		if c.Transfer(mid) > target {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// QFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// QInv inverts QFunc by bisection; it is exact enough for BER work
// (|error| < 1e-12 in x) over p ∈ (0, 0.5). The bisection stops at its
// float fixed point — once mid lands on an endpoint no later round can move
// either one — which the 40-wide bracket reaches in ~55 rounds (112 for p
// one ULP under 0.5), where the fixed 200 it used to run ended too.
func QInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 0.5 {
		return 0
	}
	lo, hi := 0.0, 40.0
	for {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			return mid
		}
		if QFunc(mid) > p {
			lo = mid
		} else {
			hi = mid
		}
	}
}
