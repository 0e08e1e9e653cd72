package fec

import (
	"errors"
	"fmt"
)

// Codec is the full concatenated FEC pipeline of §3.3.2 with real codecs:
// Depth outer RS codewords are bit-interleaved across each other and
// wrapped in inner extended-Hamming blocks. Interleaving across the outer
// codewords converts an inner-block decoding failure (a burst of up to N
// consecutive line bits) into a few bit errors per outer codeword — well
// inside the RS correction radius.
type Codec struct {
	Outer *RS
	Inner *Hamming
	// Depth is the number of outer codewords interleaved per frame.
	Depth int
	// ChaseBits is the Chase-2 test-pattern width for soft decoding.
	ChaseBits int
}

// NewCodec returns the production-style stack: KP4 outer, (64,57) inner,
// depth-8 interleaving, 4-bit Chase decoding.
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
func NewCodec() (*Codec, error) {
	inner, err := NewHamming(6)
	if err != nil {
		return nil, err
	}
	return &Codec{Outer: NewKP4(), Inner: inner, Depth: 8, ChaseBits: 4}, nil
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
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
func (c *Codec) Rate() float64 {
	payload := float64(c.MessageSymbols() * c.Outer.Field().Bits())
	return payload / float64(c.FrameBits())
}

// Encode maps Depth outer messages (each Outer.K() symbols) to line bits.
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
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
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
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
//
//lwlint:ignore deadexport bit-level codec the ROADMAP Fidelity item (b) drives with the dsp waveform under par.MonteCarlo
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
