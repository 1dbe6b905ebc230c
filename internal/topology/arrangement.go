package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// Arrangement is the arrangement graph A_{n,k} of Day and Tripathi [11]:
// nodes are injective k-tuples over n symbols, edges join tuples that
// differ in exactly one position. Degree k(n-k), connectivity k(n-k)
// [11], diagnosability k(n-k) [6] for k ≥ 2 (see Diagnosability for
// k = 1).
//
// Note: the paper's Section 5.2 "proof" for arrangement graphs is a
// copy of the pancake paragraph (gap G2 in docs/algorithm.md); the partition
// implemented here is the real one — fix the last j positions to get
// n!/(n-j)! copies of A_{n-j,k-j}.
type Arrangement struct {
	n, k  int
	codec *permCodec
	g     *graph.Graph
}

// NewArrangement constructs A_{n,k} for 1 ≤ k ≤ n-1, n ≤ 12.
func NewArrangement(n, k int) *Arrangement {
	if n < 3 || k < 1 || k > n-1 || n > 12 {
		panic("topology: arrangement graph needs 1 ≤ k ≤ n-1, 3 ≤ n ≤ 12")
	}
	codec := newPermCodec(n, k)
	N := codec.Count()
	p := make([]int8, k)
	var unused []int8
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		codec.Unrank(u, p)
		unused = unusedSymbols(n, p, unused[:0])
		for i := 0; i < k; i++ {
			old := p[i]
			for _, s := range unused {
				p[i] = s
				dst = append(dst, codec.Rank(p))
			}
			p[i] = old
		}
		return dst
	})
	return &Arrangement{n: n, k: k, codec: codec, g: g}
}

// Name implements Network.
func (a *Arrangement) Name() string { return fmt.Sprintf("A(%d,%d)", a.n, a.k) }

// Dim returns n; Positions returns k.
func (a *Arrangement) Dim() int { return a.n }

// Positions returns k.
func (a *Arrangement) Positions() int { return a.k }

// Graph implements Network.
func (a *Arrangement) Graph() *graph.Graph { return a.g }

// Connectivity implements Network: κ(A_{n,k}) = k(n-k) [11].
func (a *Arrangement) Connectivity() int { return a.k * (a.n - a.k) }

// Diagnosability implements Network: δ(A_{n,k}) = k(n-k) [6] for
// k ≥ 2, except A_{3,2}, the 6-cycle, whose exhaustively computed δ is
// 1. A_{n,1} is the complete graph K_n, which no comparison system
// of n nodes makes more than ⌊(n-1)/2⌋-diagnosable; an exhaustive
// search finds exactly that δ for 4 ≤ n ≤ 12, and δ = 0 for the
// triangle K_3, where any two single faults are indistinguishable.
func (a *Arrangement) Diagnosability() int {
	switch {
	case a.n == 3 && a.k == 2:
		return 1
	case a.k > 1:
		return a.k * (a.n - a.k)
	case a.n == 3:
		return 0
	}
	return (a.n - 1) / 2
}

// Parts implements Network. Fixing the last j positions yields
// n!/(n-j)! copies of A_{n-j,k-j}; A_{m,1} is the complete graph K_m.
// For small k the precondition N > δ(δ+1) is unsatisfiable — e.g. every
// A_{n,2} — and ErrNoPartition is returned (gap G3 in
// docs/algorithm.md).
func (a *Arrangement) Parts(minSize, minCount int) ([]Part, error) {
	return suffixParts(a.g, a.codec, a.n, a.k, minSize, minCount, func(nRem, kRem int) bool {
		// Induced degree of A_{nRem,kRem} is kRem(nRem-kRem); the
		// nRem ≥ 3 guard covers the K_m case too.
		return nRem >= 3 && kRem*(nRem-kRem) >= 2
	})
}
