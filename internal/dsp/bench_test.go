package dsp

import (
	"testing"

	"lightwave/internal/sim"
)

// BenchmarkAnalyticBER prices one evaluation on a receiver prepared once
// (the admission path) and through Receiver.BER, which prepares per call.
func BenchmarkAnalyticBER(b *testing.B) {
	r := DefaultReceiver()
	cond := MPICondition{MPIDB: -32, OIM: true}
	b.Run("prepared", func(b *testing.B) {
		pr := r.Prepare()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = pr.BER(-9, cond)
		}
	})
	b.Run("receiver", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = r.BER(-9, cond)
		}
	})
}

func BenchmarkSensitivitySearch(b *testing.B) {
	r := DefaultReceiver()
	cond := MPICondition{MPIDB: -32, OIM: true}
	for i := 0; i < b.N; i++ {
		if _, err := r.Sensitivity(2e-4, cond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarlo100k(b *testing.B) {
	r := DefaultReceiver()
	for i := 0; i < b.N; i++ {
		_ = r.MonteCarloBER(-11, MPICondition{MPIDB: -30},
			MonteCarloConfig{Symbols: 100000, Rand: sim.NewRand(uint64(i + 1))})
	}
}

func BenchmarkOIMMitigation100k(b *testing.B) {
	r := DefaultReceiver()
	for i := 0; i < b.N; i++ {
		_ = r.MonteCarloBER(-11, MPICondition{MPIDB: -30, OIM: true},
			MonteCarloConfig{Symbols: 100000, Rand: sim.NewRand(uint64(i + 1))})
	}
}
