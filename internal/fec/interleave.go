package fec

import "fmt"

// Interleaver is a rows×cols block interleaver. Concatenated FEC systems
// interleave between the inner and outer code so that a burst of inner-
// decoder failures is spread across many outer codewords; the paper's
// transceivers do the same between SFEC and KP4 framing.
type Interleaver struct {
	rows, cols int
}

// NewInterleaver returns a block interleaver of the given dimensions.
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
func NewInterleaver(rows, cols int) (*Interleaver, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("fec: invalid interleaver %dx%d", rows, cols)
	}
	return &Interleaver{rows: rows, cols: cols}, nil
}

// Size returns the block size rows×cols.
func (iv *Interleaver) Size() int { return iv.rows * iv.cols }

// Interleave writes the block row-major and reads it column-major.
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
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
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
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
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
func (iv *Interleaver) BurstSpread(burst int) int {
	if burst <= 0 {
		return 0
	}
	// A contiguous burst of length L in column-major order touches each row
	// at most ceil(L/rows) times.
	return (burst + iv.rows - 1) / iv.rows
}
