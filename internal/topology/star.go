package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// Star is the star graph S_n of Akers, Harel and Krishnamurthy [1]:
// nodes are permutations of n symbols, edges swap the first symbol with
// the symbol at position i for i = 2..n. Degree n-1, connectivity n-1,
// diagnosability n-1 for n ≥ 4 [28].
type Star struct {
	n     int
	codec *permCodec
	g     *graph.Graph
}

// NewStar constructs S_n (3 ≤ n ≤ 12; larger stars exceed reasonable
// memory as n! nodes).
func NewStar(n int) *Star {
	if n < 3 || n > 12 {
		panic("topology: star graph needs 3 ≤ n ≤ 12")
	}
	codec := newPermCodec(n, n)
	N := codec.Count()
	p := make([]int8, n)
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		codec.Unrank(u, p)
		for i := 1; i < n; i++ {
			p[0], p[i] = p[i], p[0]
			dst = append(dst, codec.Rank(p))
			p[0], p[i] = p[i], p[0]
		}
		return dst
	})
	return &Star{n: n, codec: codec, g: g}
}

// Name implements Network.
func (s *Star) Name() string { return fmt.Sprintf("S%d", s.n) }

// Dim returns n.
func (s *Star) Dim() int { return s.n }

// Graph implements Network.
func (s *Star) Graph() *graph.Graph { return s.g }

// Connectivity implements Network: κ(S_n) = n-1 [1].
func (s *Star) Connectivity() int { return s.n - 1 }

// Diagnosability implements Network: δ(S_n) = n-1 for n ≥ 4 [28]. S_3
// is the 6-cycle, whose exhaustively computed δ is 1, not 2.
func (s *Star) Diagnosability() int {
	if s.n == 3 {
		return 1
	}
	return s.n - 1
}

// Parts implements Network. Fixing the last j symbols partitions S_n
// into n!/(n-j)! copies of S_{n-j} (swaps touch only position 1 and
// positions ≤ n-j once the suffix is fixed). Requires n-j ≥ 3 so parts
// keep induced degree ≥ 2.
func (s *Star) Parts(minSize, minCount int) ([]Part, error) {
	return suffixParts(s.g, s.codec, s.n, s.n, minSize, minCount, func(nRem, kRem int) bool {
		return nRem >= 3
	})
}

// suffixParts partitions a permutation-family graph (k-permutations of n
// symbols ranked by codec) by fixing the last j positions, preferring
// the largest viable j (smallest parts) meeting minSize and minCount and
// falling back to donor padding. partOK(nRem, kRem) reports whether a
// part with nRem remaining symbols and kRem free positions keeps the
// family's structural guarantees (connected, induced degree ≥ 2).
func suffixParts(g *graph.Graph, codec *permCodec, n, k, minSize, minCount int, partOK func(nRem, kRem int) bool) ([]Part, error) {
	total := codec.Count()
	var levels []granularity
	for j := k - 1; j >= 1; j-- { // ascending part size
		// size = (n-j)!/(n-k)!, count = n!/(n-j)!.
		size := 1
		for v := n - j; v > n-k; v-- {
			size *= v
		}
		if size < 3 || !partOK(n-j, k-j) {
			continue
		}
		count := total / size
		jj := j
		levels = append(levels, granularity{size, count, func() []Part {
			sufCodec := newPermCodec(n, jj)
			p := make([]int8, k)
			suffix := make([]int8, jj)
			return groupParts(total, sufCodec.Count(), func(u int32) int {
				codec.Unrank(u, p)
				copy(suffix, p[k-jj:])
				return int(sufCodec.Rank(suffix))
			})
		}})
	}
	return chooseParts(g, levels, minSize, minCount)
}

// NKStar is the (n,k)-star graph S_{n,k} of Chiang and Chen [9]: nodes
// are injective k-tuples over n symbols; edges either swap position 1
// with position i (2 ≤ i ≤ k) or replace the symbol in position 1 by an
// unused symbol. Degree n-1, connectivity n-1 [9], diagnosability n-1
// for (n,k) ≠ (3,2) [6].
type NKStar struct {
	n, k  int
	codec *permCodec
	g     *graph.Graph
}

// NewNKStar constructs S_{n,k} for 2 ≤ k ≤ n-1, n ≤ 12.
func NewNKStar(n, k int) *NKStar {
	if n < 3 || k < 2 || k > n-1 || n > 12 {
		panic("topology: (n,k)-star needs 2 ≤ k ≤ n-1, 3 ≤ n ≤ 12")
	}
	codec := newPermCodec(n, k)
	N := codec.Count()
	p := make([]int8, k)
	var unused []int8
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		codec.Unrank(u, p)
		for i := 1; i < k; i++ {
			p[0], p[i] = p[i], p[0]
			dst = append(dst, codec.Rank(p))
			p[0], p[i] = p[i], p[0]
		}
		unused = unusedSymbols(n, p, unused[:0])
		old := p[0]
		for _, s := range unused {
			p[0] = s
			dst = append(dst, codec.Rank(p))
		}
		p[0] = old
		return dst
	})
	return &NKStar{n: n, k: k, codec: codec, g: g}
}

// Name implements Network.
func (s *NKStar) Name() string { return fmt.Sprintf("S(%d,%d)", s.n, s.k) }

// Dim returns n; Positions returns k.
func (s *NKStar) Dim() int { return s.n }

// Positions returns k.
func (s *NKStar) Positions() int { return s.k }

// Graph implements Network.
func (s *NKStar) Graph() *graph.Graph { return s.g }

// Connectivity implements Network: κ(S_{n,k}) = n-1 [9].
func (s *NKStar) Connectivity() int { return s.n - 1 }

// Diagnosability implements Network: δ(S_{n,k}) = n-1 [6] for
// (n,k) ≠ (3,2). S_{3,2} is the 6-cycle, whose exhaustively computed δ
// is 1.
func (s *NKStar) Diagnosability() int {
	if s.n == 3 && s.k == 2 {
		return 1
	}
	return s.n - 1
}

// Parts implements Network. Fixing the last j positions partitions
// S_{n,k} into n!/(n-j)! copies of S_{n-j,k-j}; S_{m,1} is the complete
// graph K_m (min degree m-1 ≥ 2 needs m ≥ 3). For k = 2 the partition
// precondition of Theorem 1 is unsatisfiable — N = n(n-1) is smaller
// than (δ+1)² — and ErrNoPartition is returned (gap G3 in
// docs/algorithm.md).
func (s *NKStar) Parts(minSize, minCount int) ([]Part, error) {
	return suffixParts(s.g, s.codec, s.n, s.k, minSize, minCount, func(nRem, kRem int) bool {
		// S_{m,1} = K_m and S_{m,l} both need m ≥ 3 for induced degree ≥ 2.
		return nRem >= 3
	})
}
