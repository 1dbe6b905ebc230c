package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// shuffleTables maps the global 2-bit suffix of a node to the set of
// four 4-bit prefix deltas along which it has cross edges at each
// recursion level. Every set has four distinct non-zero members and is
// used symmetrically (the suffix is invariant along a cross edge), so
// the relation is well-formed. The union of the tables generates the
// 4-bit prefix space, keeping the 16-copy quotient connected.
//
// The exact tables of Li, Tan and Hsu [17] are not reproducible offline;
// these preserve the structural contract the diagnosis theory needs —
// n-regularity, recursive partition into 16 copies of SQ_{n-4}, and
// connectivity n, the latter verified empirically for SQ_6 in tests.
// See "Substituted constructions" in docs/algorithm.md.
var shuffleTables = [4][4]int32{
	{0x1, 0x2, 0x4, 0x8},
	{0x3, 0x6, 0xC, 0x9},
	{0x5, 0xA, 0xF, 0x7},
	{0xB, 0xD, 0xE, 0x6},
}

// ShuffleCube is the shuffle-cube SQ_n, defined for n ≡ 2 (mod 4):
// SQ_2 = Q_2, and SQ_n consists of 16 copies of SQ_{n-4} (indexed by the
// four high bits) plus four cross edges per node whose high-bit deltas
// are selected by the node's global 2-bit suffix. Degree n, connectivity
// n, diagnosability n for n ≥ 4 [17, 6].
type ShuffleCube struct {
	n int
	g *graph.Graph
}

// NewShuffleCube constructs SQ_n for n ≡ 2 (mod 4), n ≥ 2.
func NewShuffleCube(n int) *ShuffleCube {
	if n < 2 || n%4 != 2 {
		panic("topology: shuffle cube needs n ≡ 2 (mod 4)")
	}
	N := pow(2, n)
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		// SQ_2 core on the low two bits.
		dst = append(dst, u^1, u^2)
		// Cross edges at each recursion level: the level-t prefix is the
		// 4 bits starting at position 2+4t.
		s := u & 3
		for p := 2; p+4 <= n; p += 4 {
			for _, d := range shuffleTables[s] {
				dst = append(dst, u^(d<<uint(p)))
			}
		}
		return dst
	})
	return &ShuffleCube{n: n, g: g}
}

// Name implements Network.
func (s *ShuffleCube) Name() string { return fmt.Sprintf("SQ%d", s.n) }

// Dim returns n.
func (s *ShuffleCube) Dim() int { return s.n }

// Graph implements Network.
func (s *ShuffleCube) Graph() *graph.Graph { return s.g }

// Connectivity implements Network: κ(SQ_n) = n [17].
func (s *ShuffleCube) Connectivity() int { return s.n }

// Diagnosability implements Network: δ(SQ_n) = n for n ≥ 4 [6]. SQ_2
// is the 4-cycle, whose exhaustively computed δ is 0.
func (s *ShuffleCube) Diagnosability() int {
	if s.n == 2 {
		return 0
	}
	return s.n
}

// Parts implements Network. The recursion step is 16-way, so natural
// part sizes are 2^{n-4b}; when the natural size is too small (SQ_6
// splits into parts of 4 < δ+1 = 7), undersized parts are merged with
// adjacent copies, which preserves connectedness and induced degree.
func (s *ShuffleCube) Parts(minSize, minCount int) ([]Part, error) {
	// Prefer the smallest natural granularity that fits outright.
	for m := 2; m <= s.n-4; m += 4 {
		size := 1 << uint(m)
		count := 1 << uint(s.n-m)
		if size >= minSize && count >= minCount {
			return rangeParts(1<<uint(s.n), size), nil
		}
	}
	// Fall back to merging adjacent copies, coarsest viable level first
	// (fewest merges needed).
	for m := s.n - 4; m >= 2; m -= 4 {
		count := 1 << uint(s.n-m)
		if count < minCount {
			continue
		}
		parts := rangeParts(1<<uint(s.n), 1<<uint(m))
		if merged, err := mergeParts(s.g, parts, minSize, minCount); err == nil {
			return merged, nil
		}
	}
	return nil, ErrNoPartition
}
