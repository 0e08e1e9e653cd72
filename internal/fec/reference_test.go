package fec

import "math"

// The pre-table, pre-early-exit bodies of the transfer chain, kept verbatim
// as the reference the equivalence tests and FuzzConcatenatedTransfer hold
// the production code to, bit for bit.

func refLogChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

func refRSTransfer(r *RS, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 0.5
	}
	m := float64(r.bits)
	ps := 1 - math.Pow(1-p, m)
	if ps >= 1 {
		ps = 1
	}
	n := r.n
	sum := 0.0
	lp := math.Log(ps)
	lq := math.Log1p(-ps)
	for i := r.t + 1; i <= n; i++ {
		lt := refLogChoose(n, i) + float64(i)*lp + float64(n-i)*lq
		term := math.Exp(lt) * float64(i) / float64(n)
		sum += term
		if term < sum*1e-15 && i > r.t+3 {
			break
		}
	}
	bitsPerBadSymbol := m * p / ps
	return sum * bitsPerBadSymbol / m
}

func refQInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 0.5 {
		return 0
	}
	lo, hi := 0.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if QFunc(mid) > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// refInnerTransfer is the default inner code (3.6 dB gain, 0.4 dB rate
// penalty) with its Q-gain recomputed per call.
func refInnerTransfer(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 0.5 {
		return 0.5
	}
	gainDB, ratePenaltyDB := 3.6, 0.4
	gain := math.Pow(10, (gainDB-ratePenaltyDB)/20)
	return QFunc(refQInv(p) * gain)
}

func refConcatenatedTransfer(outer *RS, p float64) float64 {
	return refRSTransfer(outer, refInnerTransfer(p))
}
