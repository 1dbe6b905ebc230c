package graph

import (
	"math/bits"

	"comparisondiag/internal/bitset"
)

// BFSFrom returns a distance array indexed by node id: dist[v] is v's
// BFS (hop) distance from src, or -1 if v is unreachable. Note that the
// result is NOT a visit order — the slice has length g.N() regardless of
// how many nodes are reachable, and dist[v] says how far v is, not when
// it was discovered. When restrict is non-nil the traversal is confined
// to nodes contained in restrict (src must be a member).
func (g *Graph) BFSFrom(src int32, restrict *bitset.Set) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if restrict != nil && !restrict.Contains(int(src)) {
		return dist
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] != -1 {
				continue
			}
			if restrict != nil && !restrict.Contains(int(v)) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	return dist
}

// Connected reports whether the whole graph is connected (true for the
// empty and single-node graph). A descriptor-backed graph answers from
// the rank of its masks.
func (g *Graph) Connected() bool {
	if g.gen != nil {
		return xorConnected(g.xor.Bits, g.xor.Masks)
	}
	if g.n <= 1 {
		return true
	}
	return g.componentSizeFrom(0, nil) == g.n
}

// ConnectedWithin reports whether the induced subgraph on the given node
// set is connected. An empty set counts as connected.
func (g *Graph) ConnectedWithin(set *bitset.Set) bool {
	first := -1
	set.ForEach(func(i int) bool { first = i; return false })
	if first < 0 {
		return true
	}
	return g.componentSizeFrom(int32(first), set) == set.Count()
}

func (g *Graph) componentSizeFrom(src int32, restrict *bitset.Set) int {
	seen := bitset.New(g.n)
	seen.Add(int(src))
	queue := []int32{src}
	size := 1
	var buf []int32
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		buf = g.AppendNeighbors(u, buf)
		for _, v := range buf {
			if seen.Contains(int(v)) {
				continue
			}
			if restrict != nil && !restrict.Contains(int(v)) {
				continue
			}
			seen.Add(int(v))
			size++
			queue = append(queue, v)
		}
	}
	return size
}

// Components returns the connected components as slices of node ids.
func (g *Graph) Components() [][]int32 {
	seen := bitset.New(g.n)
	var comps [][]int32
	for s := int32(0); int(s) < g.n; s++ {
		if seen.Contains(int(s)) {
			continue
		}
		var comp []int32
		seen.Add(int(s))
		queue := []int32{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.Neighbors(u) {
				if !seen.Contains(int(v)) {
					seen.Add(int(v))
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Eccentricity returns the greatest BFS distance from src, or -1 if some
// node is unreachable.
func (g *Graph) Eccentricity(src int32) int {
	dist := g.BFSFrom(src, nil)
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// NeighborsOfSet returns the set of nodes outside `set` adjacent to at
// least one member of `set` — the set N of Theorem 1.
func (g *Graph) NeighborsOfSet(set *bitset.Set) *bitset.Set {
	out := bitset.New(g.n)
	g.NeighborsOfSetInto(set, out)
	return out
}

// NeighborsOfSetInto computes NeighborsOfSet into out, which is cleared
// first — the allocation-free variant for callers holding scratch. Both
// member loops run word-level over the bitset (no per-member closure).
// For sparse sets it marks every neighbour unconditionally and removes
// the members with one final Subtract, which is cheaper than a Contains
// check per visited arc; for dense sets (the diagnosis case, where the
// healthy set is all but ≤ δ nodes) it scans the small complement and
// asks each outside node whether any neighbour is a member, touching
// O(|V\set|·Δ) arcs instead of O(|set|·Δ).
func (g *Graph) NeighborsOfSetInto(set, out *bitset.Set) {
	if set.Len() != g.n {
		panic("graph: NeighborsOfSet capacity mismatch with graph size")
	}
	offsets, targets := g.Adjacency()
	out.Clear()
	words := set.Words()
	if 2*set.Count() > g.n {
		for wi, w := range words {
			inv := ^w
			if wi == len(words)-1 {
				if tail := uint(g.n & 63); tail != 0 {
					inv &= (1 << tail) - 1
				}
			}
			for inv != 0 {
				v := int32(wi<<6 + bits.TrailingZeros64(inv))
				inv &= inv - 1
				for _, u := range targets[offsets[v]:offsets[v+1]] {
					if set.Contains(int(u)) {
						out.Add(int(v))
						break
					}
				}
			}
		}
		return
	}
	for wi, w := range words {
		for w != 0 {
			u := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			for _, v := range targets[offsets[u]:offsets[u+1]] {
				out.Add(int(v))
			}
		}
	}
	out.Subtract(set)
}

// ArticulationPoints returns the cut vertices of the graph (Tarjan's
// low-link algorithm, iterative to survive deep graphs).
func (g *Graph) ArticulationPoints() []int32 {
	disc := make([]int32, g.n)
	low := make([]int32, g.n)
	parent := make([]int32, g.n)
	childCnt := make([]int32, g.n)
	isCut := make([]bool, g.n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := int32(0)

	type frame struct {
		u  int32
		ai int // index into adjacency
	}
	for s := int32(0); int(s) < g.n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{u: s}}
		disc[s], low[s] = timer, timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ai < g.Degree(f.u) {
				v := g.Neighbors(f.u)[f.ai]
				f.ai++
				if disc[v] == -1 {
					parent[v] = f.u
					childCnt[f.u]++
					disc[v], low[v] = timer, timer
					timer++
					stack = append(stack, frame{u: v})
				} else if v != parent[f.u] && disc[v] < low[f.u] {
					low[f.u] = disc[v]
				}
			} else {
				stack = stack[:len(stack)-1]
				p := parent[f.u]
				if p != -1 {
					if low[f.u] < low[p] {
						low[p] = low[f.u]
					}
					if parent[p] != -1 && low[f.u] >= disc[p] {
						isCut[p] = true
					}
				}
			}
		}
		if childCnt[s] > 1 {
			isCut[s] = true
		}
	}
	var cuts []int32
	for u, c := range isCut {
		if c {
			cuts = append(cuts, int32(u))
		}
	}
	return cuts
}
