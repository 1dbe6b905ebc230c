// Package topology constructs the interconnection-network families the
// paper applies its algorithm to (Section 5): hypercubes and their
// variants (crossed, twisted, folded, enhanced, augmented, shuffle,
// twisted-N), k-ary n-cubes and augmented k-ary n-cubes, (n,k)-stars,
// stars, pancake graphs and arrangement graphs.
//
// Each family exposes, beside the graph itself, the two quantities the
// diagnosis theory needs — claimed connectivity κ and diagnosability δ —
// and a partition generator producing more than δ disjoint connected
// parts of more than δ nodes each (Theorem 1's precondition). Claims are
// cross-checked against exact computations on small instances in tests.
package topology

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
)

// Part is one cell of a diagnosis partition: a connected set of nodes
// with a designated seed for Set_Builder. Nodes are in ascending order.
type Part struct {
	Nodes []int32
	Seed  int32
}

// Network is an interconnection network with known diagnosis metadata.
type Network interface {
	// Name identifies the instance, e.g. "Q10" or "S(7,3)".
	Name() string
	// Graph returns the underlying undirected graph.
	Graph() *graph.Graph
	// Connectivity returns the connectivity κ claimed by the literature
	// for this instance.
	Connectivity() int
	// Diagnosability returns the diagnosability δ claimed by the
	// literature for this instance.
	Diagnosability() int
	// Parts returns at least minCount disjoint connected parts, each
	// with at least minSize nodes and minimum induced degree ≥ 2. It
	// returns ErrNoPartition when the family cannot meet the request.
	// Repeated calls with the same arguments must return the same parts
	// in the same order, seeds included: core's binding.fullParts derives
	// a healthy engine's partition again from this call and relies on
	// it matching the candidates stored at bind. TestPartsDeterministic
	// checks this for every catalogued family.
	Parts(minSize, minCount int) ([]Part, error)
}

// ErrNoPartition reports that a network cannot be split into enough
// sufficiently large connected parts — e.g. (n,2)-stars, where
// N = n(n-1) < (δ+1)² (gap G3 in docs/algorithm.md).
var ErrNoPartition = errors.New("topology: no partition with requested part size and count exists")

// buildCSR is the CSR constructor of every family without an XOR
// generator set (those build theirs with xorCSR). Tests swap in an
// edge-by-edge graph.Builder reference to pin that the one-pass build
// produces the identical CSR.
var buildCSR = graph.FromAdjacency

// rangeParts builds parts that are contiguous id ranges [i·size,
// (i+1)·size) — the natural shape for dimensional networks where a part
// is "fix the high digits". seedOffset picks the seed within each range.
func rangeParts(total, size int) []Part {
	// One flat backing array for every part's Nodes: Diagnose recomputes
	// the partition per call, so building total/size separate slices
	// would dominate its allocation profile.
	flat := make([]int32, total)
	for i := range flat {
		flat[i] = int32(i)
	}
	parts := make([]Part, 0, total/size)
	for lo := 0; lo < total; lo += size {
		parts = append(parts, Part{Nodes: flat[lo : lo+size : lo+size], Seed: int32(lo)})
	}
	return parts
}

// groupParts builds parts by grouping node ids on a key function —
// the natural shape for permutation networks where a part is "fix the
// last j positions". Keys must be in [0, numKeys).
func groupParts(n, numKeys int, key func(u int32) int) []Part {
	// Counting pass, then one flat backing array shared by all buckets
	// (same allocation-profile concern as rangeParts). Node ids are
	// assigned in ascending order, so each bucket comes out sorted.
	counts := make([]int32, numKeys)
	for u := int32(0); int(u) < n; u++ {
		counts[key(u)]++
	}
	flat := make([]int32, n)
	buckets := make([][]int32, numKeys)
	off := int32(0)
	for k, c := range counts {
		buckets[k] = flat[off : off : off+c]
		off += c
	}
	for u := int32(0); int(u) < n; u++ {
		k := key(u)
		buckets[k] = append(buckets[k], u)
	}
	parts := make([]Part, 0, numKeys)
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		parts = append(parts, Part{Nodes: b, Seed: b[0]})
	}
	return parts
}

// mergeParts greedily merges undersized parts with adjacent parts until
// every part has at least minSize nodes, failing if that would leave
// fewer than minCount parts. Used by families whose natural recursion
// step is coarse (the shuffle-cube splits 16-ways, so one level down the
// parts may be too small, but pairs of adjacent copies are fine).
func mergeParts(g *graph.Graph, parts []Part, minSize, minCount int) ([]Part, error) {
	for {
		if len(parts) < minCount {
			return nil, ErrNoPartition
		}
		small := -1
		for i, p := range parts {
			if len(p.Nodes) < minSize {
				small = i
				break
			}
		}
		if small == -1 {
			return parts, nil
		}
		// Find a part adjacent to parts[small].
		mask := bitset.FromMembers(g.N(), parts[small].Nodes)
		nb := g.NeighborsOfSet(mask)
		partner := -1
		for i, p := range parts {
			if i == small {
				continue
			}
			for _, u := range p.Nodes {
				if nb.Contains(int(u)) {
					partner = i
					break
				}
			}
			if partner != -1 {
				break
			}
		}
		if partner == -1 {
			return nil, ErrNoPartition
		}
		merged := append(append([]int32{}, parts[small].Nodes...), parts[partner].Nodes...)
		sortInt32(merged)
		np := make([]Part, 0, len(parts)-1)
		for i, p := range parts {
			if i == small || i == partner {
				continue
			}
			np = append(np, p)
		}
		np = append(np, Part{Nodes: merged, Seed: merged[0]})
		parts = np
	}
}

// granularity describes one available partition refinement level of a
// family: the part size, the part count, and a constructor.
type granularity struct {
	size, count int
	build       func() []Part
}

// chooseParts selects a partition meeting minSize and minCount from the
// family's granularity levels (sorted by ascending size). It prefers the
// smallest natural fit; when no level fits outright it pads parts of the
// coarsest level with enough parts by donating nodes from surplus parts
// (padParts). This rescues instances like FQ_7, where δ+1 = 9 but
// subcube sizes and counts are powers of two (8 and 16 never both ≥ 9).
func chooseParts(g *graph.Graph, levels []granularity, minSize, minCount int) ([]Part, error) {
	for _, lv := range levels {
		if lv.size >= minSize && lv.count >= minCount {
			return lv.build(), nil
		}
	}
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		if lv.count < minCount {
			continue
		}
		if padded, err := padParts(g, lv.build(), minSize, minCount); err == nil {
			return padded, nil
		}
	}
	return nil, ErrNoPartition
}

// padParts keeps the first minCount parts and grows each to minSize by
// donating nodes from the remaining parts. A single node is donated when
// it already has two neighbours in the growing part; otherwise an edge
// {a, b} with each endpoint adjacent to the part is donated, so every
// added node keeps induced degree ≥ 2 and the part stays connected. The
// result is a family of disjoint certified-shape parts that no longer
// covers V — Theorem 1 only needs disjointness, not coverage.
func padParts(g *graph.Graph, parts []Part, minSize, minCount int) ([]Part, error) {
	if len(parts) < minCount {
		return nil, ErrNoPartition
	}
	pool := bitset.New(g.N())
	for _, p := range parts[minCount:] {
		for _, u := range p.Nodes {
			pool.Add(int(u))
		}
	}
	kept := make([]Part, minCount)
	for pi := range kept {
		nodes := append([]int32{}, parts[pi].Nodes...)
		mask := bitset.FromMembers(g.N(), nodes)
		for len(nodes) < minSize {
			a, b, ok := findDonation(g, mask, pool)
			if !ok {
				return nil, ErrNoPartition
			}
			pool.Remove(int(a))
			mask.Add(int(a))
			nodes = append(nodes, a)
			if b >= 0 {
				pool.Remove(int(b))
				mask.Add(int(b))
				nodes = append(nodes, b)
			}
		}
		sortInt32(nodes)
		kept[pi] = Part{Nodes: nodes, Seed: nodes[0]}
	}
	return kept, nil
}

// findDonation locates either a pool node with ≥ 2 neighbours in mask
// (returned as (a, -1)) or a pool edge {a, b} with both endpoints
// adjacent to mask.
func findDonation(g *graph.Graph, mask, pool *bitset.Set) (int32, int32, bool) {
	var single int32 = -1
	var pa, pb int32 = -1, -1
	pool.ForEach(func(i int) bool {
		a := int32(i)
		deg := 0
		for _, v := range g.Neighbors(a) {
			if mask.Contains(int(v)) {
				deg++
			}
		}
		if deg >= 2 {
			single = a
			return false
		}
		if deg == 1 && pa == -1 {
			for _, b := range g.Neighbors(a) {
				if !pool.Contains(int(b)) {
					continue
				}
				for _, w := range g.Neighbors(b) {
					if w != a && mask.Contains(int(w)) {
						pa, pb = a, b
						break
					}
				}
				if pa != -1 {
					break
				}
			}
		}
		return true
	})
	if single >= 0 {
		return single, -1, true
	}
	if pa >= 0 {
		return pa, pb, true
	}
	return -1, -1, false
}

func sortInt32(a []int32) { slices.Sort(a) }

// ValidatePartition checks the Theorem 1 preconditions for a partition:
// parts disjoint, each connected in g, each with at least minSize nodes
// and induced minimum degree ≥ 2, and at least minCount parts. Tests use
// it against every family.
func ValidatePartition(g *graph.Graph, parts []Part, minSize, minCount int) error {
	if len(parts) < minCount {
		return fmt.Errorf("topology: %d parts, need ≥ %d", len(parts), minCount)
	}
	seen := bitset.New(g.N())
	for pi, p := range parts {
		if len(p.Nodes) < minSize {
			return fmt.Errorf("topology: part %d has %d nodes, need ≥ %d", pi, len(p.Nodes), minSize)
		}
		mask := bitset.New(g.N())
		for _, u := range p.Nodes {
			if seen.Contains(int(u)) {
				return fmt.Errorf("topology: node %d in two parts", u)
			}
			seen.Add(int(u))
			mask.Add(int(u))
		}
		if !mask.Contains(int(p.Seed)) {
			return fmt.Errorf("topology: seed %d outside part %d", p.Seed, pi)
		}
		if !g.ConnectedWithin(mask) {
			return fmt.Errorf("topology: part %d not connected", pi)
		}
		for _, u := range p.Nodes {
			deg := 0
			for _, v := range g.Neighbors(u) {
				if mask.Contains(int(v)) {
					deg++
				}
			}
			if deg < 2 {
				return fmt.Errorf("topology: node %d has induced degree %d < 2 in part %d", u, deg, pi)
			}
		}
	}
	return nil
}

// pow returns b^e for positive b and non-negative e, saturating at
// math.MaxInt so an oversized family is refused by the CSR build
// instead of wrapping around to a small node count.
func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		if r > math.MaxInt/b {
			return math.MaxInt
		}
		r *= b
	}
	return r
}
