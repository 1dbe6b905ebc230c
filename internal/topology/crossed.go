package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// CrossedCube is the crossed cube CQ_n of Efe [12]: same node set as
// Q_n, but the cross edge at level l "twists" the lower bit pairs via
// the pair-relation. Degree n, connectivity n [16], diagnosability n for
// n ≥ 4 [14, 6].
//
// Adjacency (standard pair-related definition): u and v are joined at
// level l iff they agree above bit l, differ at bit l, agree at bit l-1
// when l is odd, and for every complete pair (2j+1, 2j) below l the pairs
// (u_{2j+1}u_{2j}) and (v_{2j+1}v_{2j}) are pair-related:
// y = x when x_0 = 0, and y = (¬x_1)x_0 when x_0 = 1.
type CrossedCube struct {
	n int
	g *graph.Graph
}

// NewCrossedCube constructs CQ_n (n ≥ 2).
func NewCrossedCube(n int) *CrossedCube {
	if n < 2 {
		panic("topology: crossed cube needs n ≥ 2")
	}
	N := pow(2, n)
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		for l := 0; l < n; l++ {
			dst = append(dst, crossedNeighbor(u, l))
		}
		return dst
	})
	return &CrossedCube{n: n, g: g}
}

// crossedNeighbor returns u's level-l neighbour in CQ_n. The pair map
// flips bit 2j+1 exactly when bit 2j is set, for every complete pair
// below l; that map is an involution and leaves bit 2j intact, so the
// edge relation is symmetric.
func crossedNeighbor(u int32, l int) int32 {
	v := u ^ int32(1<<uint(l))
	for j := 0; 2*j+1 < l; j++ {
		if u&(1<<uint(2*j)) != 0 {
			v ^= 1 << uint(2*j+1)
		}
	}
	return v
}

// Name implements Network.
func (c *CrossedCube) Name() string { return fmt.Sprintf("CQ%d", c.n) }

// Dim returns n.
func (c *CrossedCube) Dim() int { return c.n }

// Graph implements Network.
func (c *CrossedCube) Graph() *graph.Graph { return c.g }

// Connectivity implements Network: κ(CQ_n) = n [16].
func (c *CrossedCube) Connectivity() int { return c.n }

// Diagnosability implements Network: δ(CQ_n) = n for n ≥ 4 [14], and
// below that what an exhaustive search over every pair of fault sets
// finds: δ(CQ_3) = 2 and δ(CQ_2) = 0 (CQ_2 is the 4-cycle).
func (c *CrossedCube) Diagnosability() int {
	switch c.n {
	case 2:
		return 0
	case 3:
		return 2
	}
	return c.n
}

// Parts implements Network. Fixing the high n-m bits of CQ_n induces
// CQ_m (the definition is prefix-recursive: levels below m only read
// bits below m), so parts are again contiguous ranges.
func (c *CrossedCube) Parts(minSize, minCount int) ([]Part, error) {
	return binaryCubeParts(c.g, c.n, 2, minSize, minCount)
}
