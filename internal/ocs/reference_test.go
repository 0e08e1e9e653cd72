package ocs

import (
	"slices"
	"sort"
	"testing"
)

// The retired mirror selection, kept verbatim as the reference
// FuzzMirrorSelection and TestMirrorSelectionMatchesReference hold
// selectBestMirrors to: a reflection-based stable sort of every mirror by
// quality, then a second sort of the n kept indices back into fabrication
// order.
func refSelectBestMirrors(quality []float64, n int) []int {
	idx := make([]int, len(quality))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return quality[idx[a]] < quality[idx[b]] })
	best := append([]int(nil), idx[:n]...)
	sort.Ints(best) // keep port→mirror map in stable fabrication order
	return best
}

// TestMirrorSelectionMatchesReference: the port→mirror maps of switches
// built from many seeds, on both dies, are the ones the stable sort chose.
func TestMirrorSelectionMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 2; d++ {
			if want := refSelectBestMirrors(s.dies[d].quality, cfg.Radix); !slices.Equal(s.portMirror[d], want) {
				t.Fatalf("seed %d die %d: ports map to mirrors %v, reference %v", seed, d, s.portMirror[d], want)
			}
		}
	}
}

// FuzzMirrorSelection: for any die of at most 256 mirrors and any n from 1
// to the die size (New rejects an empty radix), the cut rule keeps
// exactly the mirrors the stable sort kept. Each byte is one mirror's
// quality on a 32-step scale, so long dies are thick with ties, at the cut
// too.
func FuzzMirrorSelection(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(4))
	f.Add([]byte{7, 7, 7, 7, 7, 7}, uint8(2))
	f.Add([]byte{0, 31, 0, 31, 16, 16, 16, 0}, uint8(5))
	f.Fuzz(func(t *testing.T, die []byte, n uint8) {
		if len(die) == 0 || len(die) > 256 {
			return
		}
		quality := make([]float64, len(die))
		for m, b := range die {
			quality[m] = 0.1 + float64(b%32)/64
		}
		keep := 1 + int(n)%len(die)
		got, want := selectBestMirrors(quality, keep), refSelectBestMirrors(quality, keep)
		if !slices.Equal(got, want) {
			t.Fatalf("qualities %v, n %d: kept %v, reference %v", quality, keep, got, want)
		}
	})
}
