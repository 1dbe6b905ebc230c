package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// Hypercube is the n-dimensional hypercube Q_n: nodes are bit-strings of
// length n, edges join strings at Hamming distance 1. Degree n,
// connectivity n, diagnosability n for n ≥ 4 (see
// HypercubeDiagnosability).
type Hypercube struct {
	n int
	g *graph.Graph
}

// NewHypercube constructs Q_n (n ≥ 2), its CSR built from its
// single-bit generator set (graph.FromXORCayley), which lists every
// neighbourhood ascending with graph.BasisWalk.
func NewHypercube(n int) *Hypercube {
	if n < 2 {
		panic("topology: hypercube needs n ≥ 2")
	}
	h := &Hypercube{n: n}
	h.g = xorCSR(n, n, h.xorCayley)
	return h
}

// Name implements Network.
func (h *Hypercube) Name() string { return fmt.Sprintf("Q%d", h.n) }

// Dim returns n.
func (h *Hypercube) Dim() int { return h.n }

// Graph implements Network.
func (h *Hypercube) Graph() *graph.Graph { return h.g }

// Connectivity implements Network: κ(Q_n) = n.
func (h *Hypercube) Connectivity() int { return h.n }

// Diagnosability implements Network: HypercubeDiagnosability(n).
func (h *Hypercube) Diagnosability() int { return HypercubeDiagnosability(h.n) }

// HypercubeDiagnosability is δ(Q_n) under the comparison model: n for
// n ≥ 5 [23], and below that what an exhaustive search over every pair
// of fault sets finds: δ(Q4) = 4, but δ(Q3) = 2 and δ(Q2) = 0 (Q2 is
// the 4-cycle, where the two neighbours of a node are indistinguishable
// as single faults).
func HypercubeDiagnosability(n int) int {
	switch n {
	case 2:
		return 0
	case 3:
		return 2
	}
	return n
}

// CayleyStructure implements CayleyStructured: Q_n is the Cayley graph
// of GF(2)^n with the single-bit generators.
func (h *Hypercube) CayleyStructure() graph.CayleyDescriptor { return h.xorCayley() }

func (h *Hypercube) xorCayley() graph.XORCayley {
	return graph.XORCayley{Bits: h.n, Masks: xorBasis(h.n)}
}

// Parts implements Network. A part is a subcube Q_m obtained by fixing
// the high n-m bits, so parts are contiguous id ranges. The smallest m
// meeting minSize is used, provided enough parts remain; when powers of
// two cannot meet both bounds, parts are padded with donated edges.
func (h *Hypercube) Parts(minSize, minCount int) ([]Part, error) {
	return binaryCubeParts(h.g, h.n, 2, minSize, minCount)
}

// binaryCubeParts enumerates the subcube granularities (fixing the high
// n-m bits for m ≥ minDim) shared by every binary-cube variant: in all
// of them this induces a connected sub-network with minimum degree ≥ 2.
// Selection and padding fall to chooseParts.
func binaryCubeParts(g *graph.Graph, n, minDim, minSize, minCount int) ([]Part, error) {
	var levels []granularity
	for m := minDim; m < n; m++ {
		size := 1 << uint(m)
		count := 1 << uint(n-m)
		levels = append(levels, granularity{size, count, func() []Part {
			return rangeParts(1<<uint(n), size)
		}})
	}
	return chooseParts(g, levels, minSize, minCount)
}
