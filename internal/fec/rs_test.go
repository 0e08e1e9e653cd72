package fec

import (
	"errors"
	"testing"
	"testing/quick"

	"lightwave/internal/sim"
)

func randMsg(r *sim.Rand, k, size int) []int {
	m := make([]int, k)
	for i := range m {
		m[i] = r.Intn(size)
	}
	return m
}

func TestKP4Parameters(t *testing.T) {
	rs := kp4Codec()
	if rs.N() != 544 || rs.K() != 514 || rs.T() != 15 {
		t.Fatalf("KP4 = RS(%d,%d) t=%d", rs.N(), rs.K(), rs.T())
	}
	if rs.Field().Size() != 1024 {
		t.Error("KP4 not over GF(1024)")
	}
	if r := rs.Rate(); r < 0.94 || r > 0.95 {
		t.Errorf("rate = %v", r)
	}
}

func TestNewRSInvalid(t *testing.T) {
	f := GF1024()
	cases := [][2]int{{10, 10}, {10, 11}, {10, 0}, {2000, 100}, {11, 8}}
	for _, c := range cases {
		if _, err := NewRS(f, c[0], c[1]); err == nil {
			t.Errorf("RS(%d,%d) accepted", c[0], c[1])
		}
	}
}

func TestRSEncodeDecodeClean(t *testing.T) {
	rs := kp4Codec()
	r := sim.NewRand(1)
	msg := randMsg(r, rs.K(), 1024)
	cw, err := rs.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != rs.N() {
		t.Fatalf("codeword length %d", len(cw))
	}
	got, n, err := rs.Decode(cw)
	if err != nil || n != 0 {
		t.Fatalf("clean decode: n=%d err=%v", n, err)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatal("clean decode corrupted message")
		}
	}
}

func TestRSEncodeErrors(t *testing.T) {
	rs := kp4Codec()
	if _, err := rs.Encode(make([]int, 3)); !errors.Is(err, ErrMessageLength) {
		t.Errorf("err = %v", err)
	}
	bad := make([]int, rs.K())
	bad[0] = 5000
	if _, err := rs.Encode(bad); !errors.Is(err, ErrSymbolRange) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := rs.Decode(make([]int, 3)); !errors.Is(err, ErrCodewordLength) {
		t.Errorf("err = %v", err)
	}
}

func TestRSCorrectsUpToT(t *testing.T) {
	rs := kp4Codec()
	r := sim.NewRand(7)
	for trial := 0; trial < 10; trial++ {
		msg := randMsg(r, rs.K(), 1024)
		cw, _ := rs.Encode(msg)
		nerr := 1 + r.Intn(rs.T())
		positions := r.Perm(rs.N())[:nerr]
		for _, p := range positions {
			cw[p] ^= 1 + r.Intn(1023)
		}
		got, n, err := rs.Decode(cw)
		if err != nil {
			t.Fatalf("trial %d: %d errors not corrected: %v", trial, nerr, err)
		}
		if n != nerr {
			t.Fatalf("trial %d: corrected %d, injected %d", trial, n, nerr)
		}
		for i := range msg {
			if got[i] != msg[i] {
				t.Fatalf("trial %d: message corrupted", trial)
			}
		}
	}
}

func TestRSCorrectsExactlyT(t *testing.T) {
	rs := kp4Codec()
	r := sim.NewRand(11)
	msg := randMsg(r, rs.K(), 1024)
	cw, _ := rs.Encode(msg)
	for _, p := range r.Perm(rs.N())[:rs.T()] {
		cw[p] ^= 1 + r.Intn(1023)
	}
	_, n, err := rs.Decode(cw)
	if err != nil || n != rs.T() {
		t.Fatalf("t errors: n=%d err=%v", n, err)
	}
}

func TestRSDetectsBeyondT(t *testing.T) {
	rs := kp4Codec()
	r := sim.NewRand(13)
	detected := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		msg := randMsg(r, rs.K(), 1024)
		cw, _ := rs.Encode(msg)
		for _, p := range r.Perm(rs.N())[:rs.T()+3] {
			cw[p] ^= 1 + r.Intn(1023)
		}
		if _, _, err := rs.Decode(cw); err != nil {
			detected++
		}
	}
	// Miscorrection beyond t is possible but rare; overwhelmingly these
	// patterns must be flagged.
	if detected < trials-1 {
		t.Fatalf("only %d/%d >t patterns detected", detected, trials)
	}
}

func TestRSParityPositionErrors(t *testing.T) {
	rs := kp4Codec()
	r := sim.NewRand(17)
	msg := randMsg(r, rs.K(), 1024)
	cw, _ := rs.Encode(msg)
	// Corrupt only parity symbols.
	for i := rs.K(); i < rs.K()+5; i++ {
		cw[i] ^= 1 + r.Intn(1023)
	}
	got, n, err := rs.Decode(cw)
	if err != nil || n != 5 {
		t.Fatalf("parity errors: n=%d err=%v", n, err)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatal("message corrupted by parity-only errors")
		}
	}
}

func TestRSSmallCodeExhaustive(t *testing.T) {
	// RS(15,11) over GF(16): t=2; verify correction over many random
	// double-error patterns.
	f := NewField(4, 0x13)
	rs, err := NewRS(f, 15, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(3)
	for trial := 0; trial < 200; trial++ {
		msg := randMsg(r, 11, 16)
		cw, _ := rs.Encode(msg)
		p1 := r.Intn(15)
		p2 := (p1 + 1 + r.Intn(14)) % 15
		cw[p1] ^= 1 + r.Intn(15)
		cw[p2] ^= 1 + r.Intn(15)
		got, n, err := rs.Decode(cw)
		if err != nil || n != 2 {
			t.Fatalf("trial %d: n=%d err=%v", trial, n, err)
		}
		for i := range msg {
			if got[i] != msg[i] {
				t.Fatalf("trial %d corrupted", trial)
			}
		}
	}
}

func TestRSRoundTripProperty(t *testing.T) {
	f := NewField(8, 0x11d)
	rs, err := NewRS(f, 255, 239)
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(seed uint64, nerrRaw uint8) bool {
		r := sim.NewRand(seed)
		nerr := int(nerrRaw) % (rs.T() + 1)
		msg := randMsg(r, rs.K(), 256)
		cw, _ := rs.Encode(msg)
		for _, p := range r.Perm(rs.N())[:nerr] {
			cw[p] ^= 1 + r.Intn(255)
		}
		got, n, err := rs.Decode(cw)
		if err != nil || n != nerr {
			return false
		}
		for i := range msg {
			if got[i] != msg[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestRSCodewordIsSystematic(t *testing.T) {
	rs := kp4Codec()
	r := sim.NewRand(19)
	msg := randMsg(r, rs.K(), 1024)
	cw, _ := rs.Encode(msg)
	for i := range msg {
		if cw[i] != msg[i] {
			t.Fatal("codeword not systematic")
		}
	}
}
