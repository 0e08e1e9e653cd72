package fec

import (
	"testing"

	"lightwave/internal/sim"
)

func BenchmarkRSEncodeKP4(b *testing.B) {
	rs := kp4Codec()
	r := sim.NewRand(1)
	msg := randMsg(r, rs.K(), 1024)
	b.SetBytes(int64(rs.K() * 10 / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSDecodeClean(b *testing.B) {
	rs := kp4Codec()
	r := sim.NewRand(2)
	msg := randMsg(r, rs.K(), 1024)
	cw, _ := rs.Encode(msg)
	b.SetBytes(int64(rs.N() * 10 / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]int(nil), cw...)
		if _, _, err := rs.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSDecodeWithErrors(b *testing.B) {
	rs := kp4Codec()
	r := sim.NewRand(3)
	msg := randMsg(r, rs.K(), 1024)
	cw, _ := rs.Encode(msg)
	positions := r.Perm(rs.N())[:rs.T()]
	b.SetBytes(int64(rs.N() * 10 / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]int(nil), cw...)
		for _, p := range positions {
			buf[p] ^= 0x155
		}
		if _, _, err := rs.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChaseDecode(b *testing.B) {
	h, _ := NewHamming(6)
	r := sim.NewRand(4)
	data := randBits(r, h.K())
	cw, _ := h.Encode(data)
	llr := make([]float64, h.N())
	for i, bit := range cw {
		s := 1.0
		if bit == 1 {
			s = -1.0
		}
		llr[i] = s + 0.4*r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.DecodeSoft(llr, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecFrameHard(b *testing.B) {
	c, err := NewCodec()
	if err != nil {
		b.Fatal(err)
	}
	r := sim.NewRand(5)
	msgs := make([][]int, c.Depth)
	for d := range msgs {
		msgs[d] = randMsg(r, c.Outer.K(), 1024)
	}
	frame, err := c.Encode(msgs)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame) / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]byte(nil), frame...)
		if _, _, err := c.DecodeHard(buf); err != nil {
			b.Fatal(err)
		}
	}
}
