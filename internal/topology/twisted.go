package topology

import (
	"fmt"
	"math/bits"

	"comparisondiag/internal/graph"
)

// TwistedCube is a twisted cube TQ_n in the spirit of Hilbers, Koopman
// and van de Snepscheut [15], defined for odd n. Dimension 0 is a plain
// hypercube dimension; the remaining dimensions come in pairs (j, j+1)
// for odd j, and the 4-cycle spanned by each pair is wired either
// straight or "twisted" depending on the parity of the bits below j:
//
//	parity 0:  u ~ u⊕2^j,       u ~ u⊕2^{j+1}        (straight face)
//	parity 1:  u ~ u⊕2^j⊕2^{j+1}, u ~ u⊕2^{j+1}      (twisted face)
//
// Both wirings are 2-regular 4-cycles and involutive, so the graph is
// well-formed and n-regular. The exact cross-edge tables of [15] are not
// reproducible offline; this construction preserves the properties the
// diagnosis theory uses — n-regularity, partition into 4 copies of
// TQ_{n-2} by fixing the two high bits, and connectivity n (verified
// empirically in tests for small n). See "Substituted constructions" in
// docs/algorithm.md.
type TwistedCube struct {
	n int
	g *graph.Graph
}

// NewTwistedCube constructs TQ_n for odd n ≥ 3.
func NewTwistedCube(n int) *TwistedCube {
	if n < 3 || n%2 == 0 {
		panic("topology: twisted cube needs odd n ≥ 3")
	}
	N := pow(2, n)
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		dst = append(dst, u^1) // dimension 0
		for j := 1; j < n; j += 2 {
			below := uint32(u) & ((1 << uint(j)) - 1)
			parity := bits.OnesCount32(below) & 1
			if parity == 0 {
				dst = append(dst, u^int32(1<<uint(j)), u^int32(1<<uint(j+1)))
			} else {
				dst = append(dst, u^int32(3<<uint(j)), u^int32(1<<uint(j+1)))
			}
		}
		return dst
	})
	return &TwistedCube{n: n, g: g}
}

// Name implements Network.
func (t *TwistedCube) Name() string { return fmt.Sprintf("TQ%d", t.n) }

// Dim returns n.
func (t *TwistedCube) Dim() int { return t.n }

// Graph implements Network.
func (t *TwistedCube) Graph() *graph.Graph { return t.g }

// Connectivity implements Network: κ(TQ_n) = n [7].
func (t *TwistedCube) Connectivity() int { return t.n }

// Diagnosability implements Network: δ(TQ_n) = n for n ≥ 4 [6]; for the
// odd dimensions we construct this means n ≥ 5. An exhaustive search
// over every pair of fault sets gives δ(TQ_3) = 2.
func (t *TwistedCube) Diagnosability() int {
	if t.n == 3 {
		return 2
	}
	return t.n
}

// Parts implements Network. Pair levels below m only read bits below m,
// so fixing the high bits in steps of two yields 4^b copies of TQ_{n-2b};
// a final single-bit refinement is impossible (pairs are atomic), so
// part dimensions are n-2b with b ≥ 1... the search below simply walks
// the odd dimensions m = n-2, n-4, …, 3.
func (t *TwistedCube) Parts(minSize, minCount int) ([]Part, error) {
	var levels []granularity
	for m := 3; m <= t.n-2; m += 2 {
		size := 1 << uint(m)
		count := 1 << uint(t.n-m)
		levels = append(levels, granularity{size, count, func() []Part {
			return rangeParts(1<<uint(t.n), size)
		}})
	}
	return chooseParts(t.g, levels, minSize, minCount)
}
