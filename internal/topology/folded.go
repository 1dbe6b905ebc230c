package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// FoldedHypercube is FQ_n: Q_n plus a complement edge u ~ ū joining each
// node to its bitwise complement [3]. Degree n+1, connectivity n+1,
// diagnosability n+1 for n ≥ 4 [6].
type FoldedHypercube struct {
	n int
	g *graph.Graph
}

// NewFoldedHypercube constructs FQ_n (n ≥ 2).
func NewFoldedHypercube(n int) *FoldedHypercube {
	if n < 2 {
		panic("topology: folded hypercube needs n ≥ 2")
	}
	f := &FoldedHypercube{n: n}
	f.g = xorCSR(n, n+1, f.xorCayley)
	return f
}

// Name implements Network.
func (f *FoldedHypercube) Name() string { return fmt.Sprintf("FQ%d", f.n) }

// Dim returns n.
func (f *FoldedHypercube) Dim() int { return f.n }

// Graph implements Network.
func (f *FoldedHypercube) Graph() *graph.Graph { return f.g }

// Connectivity implements Network: κ(FQ_n) = n+1 [3].
func (f *FoldedHypercube) Connectivity() int { return f.n + 1 }

// Diagnosability implements Network: δ(FQ_n) = n+1 for n ≥ 4 [6], and
// below that what an exhaustive search over every pair of fault sets
// finds: δ(FQ_3) = 2 and δ(FQ_2) = 1 (FQ_2 is K_4).
func (f *FoldedHypercube) Diagnosability() int {
	if f.n <= 3 {
		return f.n - 1
	}
	return f.n + 1
}

// CayleyStructure implements CayleyStructured: the single-bit basis
// plus the all-ones complement mask — a multi-bit XOR generator set.
func (f *FoldedHypercube) CayleyStructure() graph.CayleyDescriptor { return f.xorCayley() }

func (f *FoldedHypercube) xorCayley() graph.XORCayley {
	return graph.XORCayley{Bits: f.n, Masks: append(xorBasis(f.n), 1<<uint(f.n)-1)}
}

// Parts implements Network. Complement edges always change the high
// bits, so fixing the high n-m bits induces a plain Q_m — connected with
// minimum degree m ≥ 2.
func (f *FoldedHypercube) Parts(minSize, minCount int) ([]Part, error) {
	return binaryCubeParts(f.g, f.n, 2, minSize, minCount)
}

// EnhancedHypercube is Q_{n,f}: Q_n plus a complement edge flipping the
// f high bits of every node, 2 ≤ f ≤ n [22]. FQ_n is the special case
// f = n. Degree n+1, connectivity n+1, diagnosability n+1 for n ≥ 4 [6].
type EnhancedHypercube struct {
	n, f int
	g    *graph.Graph
}

// NewEnhancedHypercube constructs Q_{n,f} with complement edges flipping
// the f high bits (2 ≤ f ≤ n, n ≥ 2). f ≥ 2 keeps the complement edge
// distinct from the hypercube edges.
func NewEnhancedHypercube(n, f int) *EnhancedHypercube {
	if n < 2 || f < 2 || f > n {
		panic("topology: enhanced hypercube needs n ≥ 2 and 2 ≤ f ≤ n")
	}
	e := &EnhancedHypercube{n: n, f: f}
	e.g = xorCSR(n, n+1, e.xorCayley)
	return e
}

// Name implements Network.
func (e *EnhancedHypercube) Name() string { return fmt.Sprintf("Q(%d,%d)", e.n, e.f) }

// Dim returns n.
func (e *EnhancedHypercube) Dim() int { return e.n }

// Graph implements Network.
func (e *EnhancedHypercube) Graph() *graph.Graph { return e.g }

// Connectivity implements Network: κ(Q_{n,f}) = n+1 [22].
func (e *EnhancedHypercube) Connectivity() int { return e.n + 1 }

// Diagnosability implements Network: δ(Q_{n,f}) = n+1 for n ≥ 4 [6],
// and below that what an exhaustive search over every pair of fault
// sets finds: δ(Q_{3,2}) = 3, δ(Q_{3,3}) = 2 (Q_{3,3} is FQ_3) and
// δ(Q_{2,2}) = 1 (K_4).
func (e *EnhancedHypercube) Diagnosability() int {
	switch {
	case e.n == 2:
		return 1
	case e.n == 3 && e.f == 2:
		return 3
	case e.n == 3:
		return 2
	}
	return e.n + 1
}

// CayleyStructure implements CayleyStructured: the single-bit basis
// plus the f-high-bits complement mask.
func (e *EnhancedHypercube) CayleyStructure() graph.CayleyDescriptor { return e.xorCayley() }

func (e *EnhancedHypercube) xorCayley() graph.XORCayley {
	mask := int32((1<<uint(e.f) - 1) << uint(e.n-e.f))
	return graph.XORCayley{Bits: e.n, Masks: append(xorBasis(e.n), mask)}
}

// Parts implements Network. The complement edge flips at least one of
// the high n-m bits whenever m ≤ n-1 and f ≥ 2... more precisely it
// flips high bits as long as the partition prefix overlaps the f flipped
// bits; we pick m ≤ n - 1 so every part is either a plain Q_m or Q_m
// plus internal complement chords — connected with min degree ≥ 2 either
// way.
func (e *EnhancedHypercube) Parts(minSize, minCount int) ([]Part, error) {
	return binaryCubeParts(e.g, e.n, 2, minSize, minCount)
}
