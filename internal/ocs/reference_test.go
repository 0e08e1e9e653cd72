package ocs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"lightwave/internal/telemetry"
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

// permOf lists a map's moves as a Permutation.
func permOf(m map[PortID]PortID) Permutation {
	p := make(Permutation, 0, len(m))
	for n, so := range m {
		p = append(p, Move{North: n, South: so})
	}
	return p
}

// refSwitch runs the retired switch transaction, kept verbatim below as
// the reference FuzzApplyAll holds check, commit and ApplyAll to: a
// permutation is a map, circuit losses live in a map keyed by port pair,
// and align evaluates the path's intrinsic loss floor itself. The
// embedded Switch supplies the physics — configuration, mirrors, driver
// boards, failed ports, chassis state — while conn, rconn and loss shadow
// its circuit state.
type refSwitch struct {
	*Switch
	conn, rconn []int
	loss        map[[2]int]float64
}

func newRefSwitch(sw *Switch) *refSwitch {
	r := &refSwitch{Switch: sw, conn: make([]int, sw.cfg.Radix), rconn: make([]int, sw.cfg.Radix), loss: map[[2]int]float64{}}
	for i := range r.conn {
		r.conn[i], r.rconn[i] = -1, -1
	}
	return r
}

type refPermutation map[PortID]PortID

func (s *refSwitch) check(p refPermutation) error {
	if !s.up {
		return ErrSwitchDown
	}
	seenSouth := make(map[PortID]bool, len(p))
	for n, so := range p {
		if int(n) < 0 || int(n) >= s.cfg.Radix || so < Dark || int(so) >= s.cfg.Radix {
			return fmt.Errorf("%w: %d->%d", ErrPortRange, n, so)
		}
		if so == Dark {
			continue
		}
		if seenSouth[so] {
			return fmt.Errorf("%w: south %d targeted twice", ErrNotBijective, so)
		}
		seenSouth[so] = true
		// A south port currently owned by a north port that the permutation
		// does not reassign would be disturbed — reject.
		if owner := s.rconn[so]; owner != -1 && owner != int(n) {
			if _, moved := p[PortID(owner)]; !moved {
				return fmt.Errorf("%w: south %d busy with untouched north %d", ErrPortBusy, so, owner)
			}
		}
	}
	for n, so := range p {
		if so == Dark {
			continue
		}
		if s.portFailed[n] || s.portFailed[so] {
			return fmt.Errorf("%w: %d->%d", ErrPortFailed, n, so)
		}
		if s.conn[n] != int(so) && (!s.portDrivable(n) || !s.portDrivable(so)) {
			return fmt.Errorf("%w: %d->%d mirror undrivable", ErrPortFailed, n, so)
		}
	}
	return nil
}

func (s *refSwitch) commit(p refPermutation) ReconfigResult {
	var buf [32]PortID
	moved := buf[:0]
	for n, so := range p {
		if s.conn[n] != int(so) {
			moved = append(moved, n)
		}
	}
	slices.Sort(moved)
	for _, n := range moved {
		if s.conn[n] != -1 {
			s.disconnect(n)
		}
		if so := p[n]; so != Dark && s.rconn[so] != -1 {
			s.disconnect(PortID(s.rconn[so]))
		}
	}
	res := ReconfigResult{Changed: len(moved)}
	for _, n := range moved {
		if so := p[n]; so != Dark {
			c := s.establish(n, so)
			res.Established = append(res.Established, c)
			res.Duration = max(res.Duration, c.SetupTime)
		}
	}
	return res
}

func refApplyAll(switches []*refSwitch, perms []refPermutation) error {
	for i, p := range perms {
		if len(p) == 0 {
			continue
		}
		if err := switches[i].check(p); err != nil {
			return fmt.Errorf("OCS %d: %w", i, err)
		}
	}
	for i, p := range perms {
		switches[i].commit(p)
	}
	return nil
}

func (s *refSwitch) establish(north, south PortID) Circuit {
	loss, setup := s.align(north, south)
	s.conn[north] = int(south)
	s.rconn[south] = int(north)
	s.loss[[2]int{int(north), int(south)}] = loss
	if s.metricReconf != nil {
		s.metricReconf.Inc()
	}
	if s.metricLoss != nil {
		s.metricLoss.Observe(loss)
	}
	return Circuit{North: north, South: south, InsertionLossDB: loss, SetupTime: setup}
}

func (s *refSwitch) align(north, south PortID) (lossDB, setup float64) {
	floor := s.IntrinsicLossDB(north, south)
	// Open-loop pointing error before feedback: up to a few dB excess.
	r := s.pairRand(north, south, 0xA11)
	excess := 1.5 + 1.0*r.Float64()
	for i := 0; i < alignIterations; i++ {
		excess *= 0.35 // each camera round removes ~65% of residual error
	}
	// Residual jitter of the servo.
	res := 0.02 + 0.02*r.Float64()
	setup = mirrorSettle + alignIterations*alignRound
	return floor + excess + res, setup
}

func (s *refSwitch) disconnect(north PortID) {
	so := s.conn[north]
	s.conn[north] = -1
	s.rconn[so] = -1
	delete(s.loss, [2]int{int(north), so})
}

func (s *refSwitch) Circuits() []Circuit {
	var cs []Circuit
	for n, so := range s.conn {
		if so == -1 {
			continue
		}
		cs = append(cs, Circuit{
			North:           PortID(n),
			South:           PortID(so),
			InsertionLossDB: s.loss[[2]int{n, so}],
		})
	}
	return cs
}

func (s *refSwitch) NumCircuits() int { return len(s.loss) }

// fuzzSwitches is the switch count FuzzApplyAll's transactions span.
const fuzzSwitches = 3

// fuzzConfig is a small switch, so random moves collide often: 12 ports,
// 16 mirrors per die on 4 driver boards.
func fuzzConfig() Config {
	return Config{Radix: 12, SparePorts: 2, MirrorsPerDie: 16, DriverBoards: 4, Seed: 5}
}

// fuzzPort maps a byte to a port in [-2, 14): out of range below -1 and
// from the radix up, Dark at -1.
func fuzzPort(b byte) PortID { return PortID(int(b%16) - 2) }

// FuzzApplyAll drives random transactions over three small switches
// through ApplyAll and the retired map-based transaction, and after each
// requires the same verdict, bit-equal switch state and the same
// ocs.reconfigurations and ocs.insertion_loss_db telemetry. The first byte
// spoils the plant before any circuit exists: bit 0 takes switch 0 down,
// bit 1 fails driver board 1 of switch 1, bit 2 fails port 3 of switch 2.
// The rest is moves of four bytes — switch, north, south, flags — where a
// switch byte of 0xFF ends one transaction. Flag bit 0 builds the move
// with Switch.Move, so its floor is evaluated up front; bit 1 adds a Dark
// move on the same north port, which the target supersedes as a map
// assignment would have.
func FuzzApplyAll(f *testing.F) {
	f.Add([]byte{0, 0, 2, 7, 0, 0, 3, 8, 1, 0xFF, 0, 2, 8, 2, 1, 4, 5, 3})
	f.Add([]byte{1, 0, 2, 3, 0, 1, 2, 4, 1, 0xFF, 1, 2, 1, 0})
	f.Add([]byte{2, 1, 2, 3, 0, 1, 3, 2, 0, 0xFF, 1, 2, 4, 0, 1, 3, 2, 1})
	f.Add([]byte{4, 2, 5, 5, 1, 2, 6, 5, 0, 0xFF, 2, 5, 1, 0, 0xFF, 2, 2, 7, 1, 2, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg, twinCfg := fuzzConfig(), fuzzConfig()
		cfg.Metrics, twinCfg.Metrics = telemetry.NewRegistry(), telemetry.NewRegistry()
		sws, err := NewSwitches(fuzzSwitches, cfg)
		if err != nil {
			t.Fatal(err)
		}
		twins, err := NewSwitches(fuzzSwitches, twinCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range [][]*Switch{sws, twins} {
			if data[0]&1 != 0 {
				_ = s[0].FailPSU(0)
				_ = s[0].FailPSU(1)
			}
			if data[0]&2 != 0 {
				_, _ = s[1].FailDriverBoard(1)
			}
			if data[0]&4 != 0 {
				_, _ = s[2].FailPort(3)
			}
		}
		refs := make([]*refSwitch, fuzzSwitches)
		for i, tw := range twins {
			refs[i] = newRefSwitch(tw)
		}
		data = data[1:]
		for len(data) > 0 {
			perms, want := make([]Permutation, fuzzSwitches), make([]refPermutation, fuzzSwitches)
			flags := make([]map[PortID]byte, fuzzSwitches)
			for len(data) >= 4 && data[0] != 0xFF {
				i, n := int(data[0])%fuzzSwitches, fuzzPort(data[1])
				if want[i] == nil {
					want[i], flags[i] = refPermutation{}, map[PortID]byte{}
				}
				want[i][n], flags[i][n] = fuzzPort(data[2]), data[3]
				data = data[4:]
			}
			if len(data) > 0 { // the 0xFF, or a torn move
				data = data[1:]
			}
			for i, p := range want {
				norths := make([]PortID, 0, len(p))
				for n := range p {
					norths = append(norths, n)
				}
				slices.Sort(norths)
				slices.Reverse(norths) // ApplyAll sorts them
				for _, n := range norths {
					so, fl := p[n], flags[i][n]
					m := Move{North: n, South: so}
					if fl&1 != 0 && n >= 0 && int(n) < sws[i].Radix() && so >= 0 && int(so) < sws[i].Radix() {
						m = sws[i].Move(n, so)
					}
					if fl&2 != 0 && so != Dark {
						perms[i] = append(perms[i], Move{North: n, South: Dark})
					}
					perms[i] = append(perms[i], m)
				}
			}
			err, wantErr := ApplyAll(sws, perms), refApplyAll(refs, want)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("transaction %v: err = %v, reference %v", want, err, wantErr)
			}
			for i, s := range sws {
				ref := refs[i]
				if !slices.Equal(s.conn, ref.conn) || !slices.Equal(s.rconn, ref.rconn) {
					t.Fatalf("switch %d after %v: conn %v rconn %v, reference %v %v", i, want, s.conn, s.rconn, ref.conn, ref.rconn)
				}
				got, wantCs := s.Circuits(), ref.Circuits()
				if !slices.EqualFunc(got, wantCs, func(a, b Circuit) bool {
					return a.North == b.North && a.South == b.South &&
						math.Float64bits(a.InsertionLossDB) == math.Float64bits(b.InsertionLossDB)
				}) {
					t.Fatalf("switch %d after %v: circuits %v, reference %v", i, want, got, wantCs)
				}
				if s.NumCircuits() != ref.NumCircuits() {
					t.Fatalf("switch %d: %d circuits, reference %d", i, s.NumCircuits(), ref.NumCircuits())
				}
			}
			// Every alignment is counted and observed as the reference's
			// was, in the same order: the loss sums are bit-equal.
			got, ref := cfg.Metrics.Distribution("ocs.insertion_loss_db").Snapshot(), twinCfg.Metrics.Distribution("ocs.insertion_loss_db").Snapshot()
			if got.N != ref.N || math.Float64bits(got.Sum) != math.Float64bits(ref.Sum) {
				t.Fatalf("after %v: %d losses observed summing to %v, reference %d to %v", want, got.N, got.Sum, ref.N, ref.Sum)
			}
			if n, refN := cfg.Metrics.Counter("ocs.reconfigurations").Value(), twinCfg.Metrics.Counter("ocs.reconfigurations").Value(); n != refN {
				t.Fatalf("after %v: %d reconfigurations, reference %d", want, n, refN)
			}
		}
	})
}
