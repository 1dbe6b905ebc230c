package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// Pancake is the pancake graph P_n of Akers and Krishnamurthy [2]:
// nodes are permutations of n symbols, edges reverse a prefix of length
// 2..n. Degree n-1, connectivity n-1 [2], diagnosability n-1 for
// n ≥ 4 [6].
type Pancake struct {
	n     int
	codec *permCodec
	g     *graph.Graph
}

// NewPancake constructs P_n (3 ≤ n ≤ 12).
func NewPancake(n int) *Pancake {
	if n < 3 || n > 12 {
		panic("topology: pancake graph needs 3 ≤ n ≤ 12")
	}
	codec := newPermCodec(n, n)
	N := codec.Count()
	p := make([]int8, n)
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		codec.Unrank(u, p)
		for l := 2; l <= n; l++ {
			reversePrefix(p, l)
			dst = append(dst, codec.Rank(p))
			reversePrefix(p, l)
		}
		return dst
	})
	return &Pancake{n: n, codec: codec, g: g}
}

func reversePrefix(p []int8, l int) {
	for i, j := 0, l-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

// Name implements Network.
func (p *Pancake) Name() string { return fmt.Sprintf("P%d", p.n) }

// Dim returns n.
func (p *Pancake) Dim() int { return p.n }

// Graph implements Network.
func (p *Pancake) Graph() *graph.Graph { return p.g }

// Connectivity implements Network: κ(P_n) = n-1 [2].
func (p *Pancake) Connectivity() int { return p.n - 1 }

// Diagnosability implements Network: δ(P_n) = n-1 for n ≥ 4 [6]. P_3
// is the 6-cycle, whose exhaustively computed δ is 1, not 2.
func (p *Pancake) Diagnosability() int {
	if p.n == 3 {
		return 1
	}
	return p.n - 1
}

// Parts implements Network. Prefix reversals of length < n never move
// the last symbol, so fixing the last j symbols partitions P_n into
// n!/(n-j)! copies of P_{n-j}; P_3 (a 6-cycle) is the smallest part
// shape with induced degree ≥ 2.
func (p *Pancake) Parts(minSize, minCount int) ([]Part, error) {
	return suffixParts(p.g, p.codec, p.n, p.n, minSize, minCount, func(nRem, kRem int) bool {
		return nRem >= 3
	})
}
