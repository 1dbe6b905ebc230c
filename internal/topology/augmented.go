package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// AugmentedCube is AQ_n of Choudum and Sunitha [10]: Q_n plus
// "suffix-complement" edges u ~ u ⊕ (2^{i+1} - 1) flipping the low i+1
// bits, for i = 1..n-1. Degree 2n-1, connectivity 2n-1 [10],
// diagnosability 2n-1 for n ≥ 5 [6].
//
// (The literature writes the complemented run at the front; we place it
// at the low end so that fixing the high bits yields the recursive
// sub-copies AQ_m — the same graph up to bit reversal.)
type AugmentedCube struct {
	n int
	g *graph.Graph
}

// NewAugmentedCube constructs AQ_n (n ≥ 2).
func NewAugmentedCube(n int) *AugmentedCube {
	if n < 2 {
		panic("topology: augmented cube needs n ≥ 2")
	}
	a := &AugmentedCube{n: n}
	a.g = xorCSR(n, 2*n-1, a.xorCayley)
	return a
}

// Name implements Network.
func (a *AugmentedCube) Name() string { return fmt.Sprintf("AQ%d", a.n) }

// Dim returns n.
func (a *AugmentedCube) Dim() int { return a.n }

// Graph implements Network.
func (a *AugmentedCube) Graph() *graph.Graph { return a.g }

// Connectivity implements Network: κ(AQ_n) = 2n-1 for n ≠ 3, and 4 for
// the known exceptional case AQ_3 [10] (verified exactly in tests).
func (a *AugmentedCube) Connectivity() int {
	if a.n == 3 {
		return 4
	}
	return 2*a.n - 1
}

// Diagnosability implements Network: δ(AQ_n) = 2n-1 for n ≥ 5 [6] and,
// by exhaustive search over every pair of fault sets, for n = 4. Below
// that the search finds δ(AQ_3) = 3, under the connectivity exception
// κ = 4, and δ(AQ_2) = 1 (AQ_2 is K_4).
func (a *AugmentedCube) Diagnosability() int {
	switch a.n {
	case 2:
		return 1
	case 3:
		return 3
	}
	return 2*a.n - 1
}

// CayleyStructure implements CayleyStructured: the single-bit basis
// plus the low-run complement masks 2^(i+1)-1 — all multi-bit.
func (a *AugmentedCube) CayleyStructure() graph.CayleyDescriptor { return a.xorCayley() }

func (a *AugmentedCube) xorCayley() graph.XORCayley {
	masks := xorBasis(a.n)
	for i := 1; i < a.n; i++ {
		masks = append(masks, 1<<uint(i+1)-1)
	}
	return graph.XORCayley{Bits: a.n, Masks: masks}
}

// Parts implements Network. Suffix-complement edges with i+1 ≤ m stay
// inside a high-bits-fixed part, so every part induces AQ_m — connected
// with minimum degree 2m-1 ≥ 3 for m ≥ 2.
func (a *AugmentedCube) Parts(minSize, minCount int) ([]Part, error) {
	return binaryCubeParts(a.g, a.n, 2, minSize, minCount)
}

// TwistedNCube is TQ'_n of Esfahanian, Ni and Sagan [13]: Q_n with one
// 2-dimensional face re-wired. On the face {0, 1, 2, 3} (all high bits
// zero) the dimension-0 edges {0,1} and {2,3} are replaced by the
// diagonals {0,3} and {1,2}. Degree n, connectivity n [13],
// diagnosability n for n ≥ 4 [6].
type TwistedNCube struct {
	n int
	g *graph.Graph
}

// NewTwistedNCube constructs TQ'_n (n ≥ 2).
func NewTwistedNCube(n int) *TwistedNCube {
	if n < 2 {
		panic("topology: twisted N-cube needs n ≥ 2")
	}
	N := pow(2, n)
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		onFace := u < 4
		for b := 0; b < n; b++ {
			v := u ^ int32(1<<uint(b))
			if onFace && b == 0 {
				// Twist: 0↔3 and 1↔2 instead of 0↔1 and 2↔3; all four
				// rewired endpoints are u XOR 3.
				v = u ^ 3
			}
			dst = append(dst, v)
		}
		return dst
	})
	return &TwistedNCube{n: n, g: g}
}

// Name implements Network.
func (t *TwistedNCube) Name() string { return fmt.Sprintf("TQ'%d", t.n) }

// Dim returns n.
func (t *TwistedNCube) Dim() int { return t.n }

// Graph implements Network.
func (t *TwistedNCube) Graph() *graph.Graph { return t.g }

// Connectivity implements Network: κ(TQ'_n) = n [13].
func (t *TwistedNCube) Connectivity() int { return t.n }

// Diagnosability implements Network: δ(TQ'_n) = n for n ≥ 4 [6], and
// below that what an exhaustive search over every pair of fault sets
// finds: δ(TQ'_3) = 2 and δ(TQ'_2) = 0 (TQ'_2 is the 4-cycle).
func (t *TwistedNCube) Diagnosability() int {
	switch t.n {
	case 2:
		return 0
	case 3:
		return 2
	}
	return t.n
}

// Parts implements Network. The twisted face sits inside the part with
// prefix 0 (for any m ≥ 2), which therefore induces TQ'_m; every other
// part is a plain Q_m.
func (t *TwistedNCube) Parts(minSize, minCount int) ([]Part, error) {
	return binaryCubeParts(t.g, t.n, 2, minSize, minCount)
}
