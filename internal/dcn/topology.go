// Package dcn models the spine-free datacenter-network use case of §2.1 and
// the evaluation summarized in §4.2 (from Poutievski et al. [47]):
// aggregation blocks directly interconnected through OCSes, a topology-
// engineering solver that allocates inter-block trunks to match a long-lived
// traffic matrix, the decomposition of the resulting logical topology into
// per-OCS circuit permutations, and a flow-level max-min-fair simulator that
// measures flow completion time and throughput against a uniform mesh.
package dcn

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Topology is the logical inter-block topology: Links[i][j] direct trunks
// from block i to block j. Trunks are counted per direction pair (a trunk
// is one bidi fiber: capacity both ways); the matrix is symmetric with a
// zero diagonal.
type Topology struct {
	Blocks int
	// UplinksPerBlock is each block's port budget.
	UplinksPerBlock int
	Links           [][]int
}

// Errors returned by topology construction.
var (
	ErrTooFewUplinks = errors.New("dcn: uplinks per block below blocks-1")
	ErrBadDemand     = errors.New("dcn: invalid demand matrix")
)

func newTopology(blocks, uplinks int) *Topology {
	t := &Topology{Blocks: blocks, UplinksPerBlock: uplinks, Links: make([][]int, blocks)}
	for i := range t.Links {
		t.Links[i] = make([]int, blocks)
	}
	return t
}

// Degree returns the number of trunks block i has allocated.
func (t *Topology) Degree(i int) int {
	d := 0
	for _, n := range t.Links[i] {
		d += n
	}
	return d
}

// Trunks returns the number of undirected trunks.
func (t *Topology) Trunks() int {
	n := 0
	for i := range t.Links {
		for j := i + 1; j < len(t.Links[i]); j++ {
			n += t.Links[i][j]
		}
	}
	return n
}

// SameTrunks reports whether u carries the same trunk matrix over the same
// blocks; the port budgets are not compared.
func (t *Topology) SameTrunks(u *Topology) bool {
	return t.Blocks == u.Blocks && slices.EqualFunc(t.Links, u.Links, slices.Equal)
}

// Clone returns a deep copy of t.
func (t *Topology) Clone() *Topology {
	out := &Topology{Blocks: t.Blocks, UplinksPerBlock: t.UplinksPerBlock, Links: make([][]int, len(t.Links))}
	for i := range t.Links {
		out.Links[i] = append([]int(nil), t.Links[i]...)
	}
	return out
}

// Routable reports whether the pair (i, j) has a direct trunk or at least
// one two-hop transit path.
func (t *Topology) Routable(i, j int) bool {
	if t.Links[i][j] > 0 {
		return true
	}
	for v := 0; v < t.Blocks; v++ {
		if v != i && v != j && t.Links[i][v] > 0 && t.Links[v][j] > 0 {
			return true
		}
	}
	return false
}

// AllRoutable reports whether every block pair is Routable — the
// invariant the flow simulator and the fluid solver both rely on.
func (t *Topology) AllRoutable() bool {
	for i := 0; i < t.Blocks; i++ {
		for j := i + 1; j < t.Blocks; j++ {
			if !t.Routable(i, j) {
				return false
			}
		}
	}
	return true
}

// Validate checks symmetry, zero diagonal, and per-block budgets.
func (t *Topology) Validate() error {
	for i := 0; i < t.Blocks; i++ {
		if t.Links[i][i] != 0 {
			return fmt.Errorf("dcn: self-links at block %d", i)
		}
		for j := 0; j < t.Blocks; j++ {
			if t.Links[i][j] != t.Links[j][i] {
				return fmt.Errorf("dcn: asymmetric links %d-%d", i, j)
			}
			if t.Links[i][j] < 0 {
				return fmt.Errorf("dcn: negative links %d-%d", i, j)
			}
		}
		if t.Degree(i) > t.UplinksPerBlock {
			return fmt.Errorf("dcn: block %d degree %d exceeds budget %d", i, t.Degree(i), t.UplinksPerBlock)
		}
	}
	return nil
}

// UniformMesh spreads every block's uplinks evenly across all other blocks
// — the demand-oblivious baseline of [47].
func UniformMesh(blocks, uplinks int) (*Topology, error) {
	if uplinks < blocks-1 {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewUplinks, uplinks, blocks-1)
	}
	t := newTopology(blocks, uplinks)
	per := uplinks / (blocks - 1)
	for i := 0; i < blocks; i++ {
		for j := i + 1; j < blocks; j++ {
			t.Links[i][j] = per
			t.Links[j][i] = per
		}
	}
	// Distribute the remainder round-robin while budgets allow.
	rem := uplinks - per*(blocks-1)
	for r := 0; r < rem; r++ {
		for i := 0; i < blocks; i++ {
			j := (i + 1 + r) % blocks
			if j == i {
				continue
			}
			if t.Degree(i) < uplinks && t.Degree(j) < uplinks {
				t.Links[i][j]++
				t.Links[j][i]++
			}
		}
	}
	return t, nil
}

// Engineer builds a demand-aware topology: every pair first gets one trunk
// for reachability, then remaining port pairs go greedily to the pair with
// the highest demand per allocated trunk — the topology-engineering step
// that "allows the optimization of inter-AB bandwidth when there is an
// increase in long-lived traffic demand between a particular set of ABs"
// (§2.1).
func Engineer(blocks, uplinks int, demand [][]float64) (*Topology, error) {
	if uplinks < blocks-1 {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewUplinks, uplinks, blocks-1)
	}
	if len(demand) != blocks {
		return nil, ErrBadDemand
	}
	for i := range demand {
		if len(demand[i]) != blocks {
			return nil, ErrBadDemand
		}
		for j := range demand[i] {
			// A NaN cell would poison every greedy score comparison (NaN
			// > best is always false) and silently degrade the fill to the
			// uniform baseline; an Inf cell would starve every other pair.
			if d := demand[i][j]; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				return nil, fmt.Errorf("%w: demand[%d][%d] = %g", ErrBadDemand, i, j, d)
			}
		}
	}
	t := newTopology(blocks, uplinks)
	for i := 0; i < blocks; i++ {
		for j := 0; j < blocks; j++ {
			if i != j {
				t.Links[i][j] = 1
			}
		}
	}
	// Symmetrized demand drives the greedy fill.
	sym := make([][]float64, blocks)
	for i := range sym {
		sym[i] = make([]float64, blocks)
		for j := range sym[i] {
			sym[i][j] = demand[i][j] + demand[j][i]
		}
	}
	for {
		bi, bj, best := -1, -1, 0.0
		for i := 0; i < blocks; i++ {
			if t.Degree(i) >= uplinks {
				continue
			}
			for j := i + 1; j < blocks; j++ {
				if t.Degree(j) >= uplinks {
					continue
				}
				score := sym[i][j] / float64(t.Links[i][j])
				if score > best {
					best, bi, bj = score, i, j
				}
			}
		}
		if bi < 0 || best == 0 {
			break
		}
		t.Links[bi][bj]++
		t.Links[bj][bi]++
	}
	return t, nil
}

// Matching is one OCS-realizable partial permutation: pairs of blocks
// connected by this OCS's circuits.
type Matching [][2]int

// Decompose splits the topology into per-OCS matchings: each trunk becomes
// one circuit on some OCS, and on any given OCS each block appears at most
// once (a block has one port per OCS). It is the Birkhoff-von-Neumann-style
// step that maps the logical topology onto physical switches. The number
// of matchings needed never exceeds the maximum block degree (≤ uplinks).
func (t *Topology) Decompose() []Matching {
	remaining := make([][]int, t.Blocks)
	for i := range remaining {
		remaining[i] = append([]int(nil), t.Links[i]...)
	}
	var out []Matching
	for {
		var m Matching
		used := make([]bool, t.Blocks)
		// Greedy maximal matching over remaining multiplicities, heaviest
		// edges first to drain high-multiplicity trunks evenly.
		for {
			bi, bj, best := -1, -1, 0
			for i := 0; i < t.Blocks; i++ {
				if used[i] {
					continue
				}
				for j := i + 1; j < t.Blocks; j++ {
					if used[j] || remaining[i][j] == 0 {
						continue
					}
					if remaining[i][j] > best {
						best, bi, bj = remaining[i][j], i, j
					}
				}
			}
			if bi < 0 {
				break
			}
			used[bi], used[bj] = true, true
			remaining[bi][bj]--
			remaining[bj][bi]--
			m = append(m, [2]int{bi, bj})
		}
		if len(m) == 0 {
			break
		}
		out = append(out, m)
	}
	return out
}
