package graph

import (
	"fmt"

	"comparisondiag/internal/bitset"
)

// Removal is the outcome of a delta operation on a Graph: the compacted
// CSR of the largest surviving connected component plus the id maps
// between the two node spaces. It is the unit of churn the engine layer
// rebinds against (core.Engine.Rebind).
//
// Node ids in G are assigned to survivors in increasing old-id order, so
// OldToNew is monotone on the survivors and every remapped (ascending)
// adjacency or part stays ascending — the compaction never needs a sort.
type Removal struct {
	// G is the induced subgraph on the largest surviving component,
	// compacted to node ids [0, G.N()): a fresh CSR, or the graph the
	// removal was applied to when nothing left it.
	G *Graph
	// OldToNew maps old node ids to new ones; -1 for removed nodes and
	// for survivors stranded outside the largest component.
	OldToNew []int32
	// NewToOld maps new node ids back to old ones (ascending).
	NewToOld []int32
	// RemovedNodes counts the distinct explicitly removed nodes.
	RemovedNodes int
	// RemovedEdges counts the distinct explicitly removed edges that
	// existed and were not already incident to a removed node.
	RemovedEdges int
	// Stranded counts nodes that survived the removal itself but fell
	// outside the largest surviving component (and are therefore absent
	// from G like removed nodes).
	Stranded int
	// GoneEdges lists the distinct explicitly removed edges that existed
	// in the old graph, normalised u < v — the information a partition
	// remapper needs to tell which parts were touched by pure edge churn.
	GoneEdges [][2]int32

	// orig is the graph the removal was applied to and removed the set of
	// explicitly removed nodes — what Restore needs to re-admit structure
	// without the caller re-threading the pre-churn world.
	orig    *Graph
	removed *bitset.Set
}

// RemoveNodes removes the given nodes (duplicates tolerated) and returns
// the compacted largest surviving component. O(n + m).
func (g *Graph) RemoveNodes(nodes []int32) *Removal { return g.Remove(nodes, nil) }

// RemoveEdges removes the given undirected edges (orientation and
// duplicates tolerated; edges not present are ignored) and returns the
// compacted largest surviving component. O(n + m).
func (g *Graph) RemoveEdges(edges [][2]int32) *Removal { return g.Remove(nil, edges) }

// Remove applies a combined node/edge delta: the given nodes disappear
// with all incident edges, the given edges disappear, and the largest
// connected component of what is left (ties broken towards the component
// containing the smallest node id) is compacted into a fresh CSR graph;
// when nothing is gone and g is connected, the survivor is g itself,
// with identity id maps. The whole operation is O(n + m). Out-of-range
// ids panic; removing an absent edge is a no-op. A descriptor-backed
// graph (FromXORCayley) is walked and compacted from its generator set
// and never writes its own CSR.
func (g *Graph) Remove(nodes []int32, edges [][2]int32) *Removal {
	return g.remove(nodes, edges, -1)
}

// remove is Remove with an optional anchor: when anchor is a surviving
// node id, the component containing it is kept instead of the largest
// one. Restore uses this to guarantee the re-grown graph contains the
// component currently being served, so growth never strands the nodes a
// rebinding engine's clients are talking to.
func (g *Graph) remove(nodes []int32, edges [][2]int32, anchor int32) *Removal {
	removed := bitset.New(g.n)
	removedNodes := 0
	for _, u := range nodes {
		if u < 0 || int(u) >= g.n {
			panic(fmt.Sprintf("graph: Remove node %d out of range [0,%d)", u, g.n))
		}
		if !removed.Contains(int(u)) {
			removed.Add(int(u))
			removedNodes++
		}
	}
	var gone map[int64]struct{}
	var goneEdges [][2]int32
	removedEdges := 0
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || int(u) >= g.n || int(v) >= g.n {
			panic(fmt.Sprintf("graph: Remove edge %d-%d out of range [0,%d)", u, v, g.n))
		}
		if u > v {
			u, v = v, u
		}
		if !g.HasEdge(u, v) {
			continue
		}
		key := int64(u)<<32 | int64(v)
		if gone == nil {
			gone = make(map[int64]struct{}, len(edges))
		}
		if _, dup := gone[key]; dup {
			continue
		}
		gone[key] = struct{}{}
		goneEdges = append(goneEdges, [2]int32{u, v})
		if !removed.Contains(int(u)) && !removed.Contains(int(v)) {
			removedEdges++
		}
	}

	// Label surviving components and keep the largest; scanning sources
	// in ascending id order with a strict size comparison makes the tie
	// break (smallest contained id) automatic.
	comp := make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, g.n)
	bestComp, bestSize := int32(-1), 0
	nextComp := int32(0)
	var sizes []int
	// Neighbourhoods come from AppendNeighbors: a view of the CSR, or
	// generated into nb on a descriptor-backed graph, which then never
	// writes its own table.
	var nb []int32
	for s := int32(0); int(s) < g.n; s++ {
		if comp[s] >= 0 || removed.Contains(int(s)) {
			continue
		}
		id := nextComp
		nextComp++
		comp[s] = id
		queue = append(queue[:0], s)
		size := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			nb = g.AppendNeighbors(u, nb)
			for _, v := range nb {
				if comp[v] >= 0 || removed.Contains(int(v)) || gone != nil && edgeGone(gone, u, v) {
					continue
				}
				comp[v] = id
				size++
				queue = append(queue, v)
			}
		}
		sizes = append(sizes, size)
		if size > bestSize {
			bestComp, bestSize = id, size
		}
	}
	if anchor >= 0 && comp[anchor] >= 0 {
		bestComp = comp[anchor]
		bestSize = sizes[bestComp]
	}

	oldToNew := make([]int32, g.n)
	newToOld := make([]int32, 0, bestSize)
	for u := int32(0); int(u) < g.n; u++ {
		if comp[u] == bestComp && bestComp >= 0 {
			oldToNew[u] = int32(len(newToOld))
			newToOld = append(newToOld, u)
		} else {
			oldToNew[u] = -1
		}
	}

	rr := &Removal{
		G:            g,
		OldToNew:     oldToNew,
		NewToOld:     newToOld,
		RemovedNodes: removedNodes,
		RemovedEdges: removedEdges,
		Stranded:     g.n - removedNodes - bestSize,
		GoneEdges:    goneEdges,
		orig:         g,
		removed:      removed,
	}
	if bestSize < g.n || len(goneEdges) > 0 {
		rr.G = g.induced(newToOld, oldToNew, gone, goneEdges, nb)
	}
	// Otherwise nothing is gone and every node is in one component: the
	// survivor is g itself, ids and all, and no copy is made.
	return rr
}

// induced lays down the CSR of the subgraph on the nodes newToOld lists
// (ascending), minus the edges in goneEdges (also keyed in gone, see
// edgeGone), in the compacted ids oldToNew assigns. Survivors keep their
// relative order, so each remapped neighbour block is already ascending.
// The target array is allocated at exact size: the survivors' degrees,
// less the arcs into the nodes left out and the arcs of gone edges
// between survivors, which costs the left-out nodes' neighbourhoods
// rather than a second pass over every arc. nb is the neighbour buffer
// of a descriptor-backed graph.
func (g *Graph) induced(newToOld, oldToNew []int32, gone map[int64]struct{}, goneEdges [][2]int32, nb []int32) *Graph {
	arcs := 0
	for _, u := range newToOld {
		arcs += g.Degree(u)
	}
	for w, id := range oldToNew {
		if id >= 0 {
			continue
		}
		nb = g.AppendNeighbors(int32(w), nb)
		for _, v := range nb {
			if oldToNew[v] >= 0 {
				arcs--
			}
		}
	}
	for _, e := range goneEdges {
		if oldToNew[e[0]] >= 0 && oldToNew[e[1]] >= 0 {
			arcs -= 2
		}
	}
	offsets := make([]int32, len(newToOld)+1)
	targets := make([]int32, 0, arcs)
	for nu, u := range newToOld {
		offsets[nu] = int32(len(targets))
		nb = g.AppendNeighbors(u, nb)
		for _, v := range nb {
			if nv := oldToNew[v]; nv >= 0 && (gone == nil || !edgeGone(gone, u, v)) {
				targets = append(targets, nv)
			}
		}
	}
	offsets[len(newToOld)] = int32(len(targets))
	return &Graph{n: len(newToOld), offsets: offsets, targets: targets, m: len(targets) / 2}
}

// edgeGone reports whether the removed-edge set gone, keyed u<<32|v
// with u < v, holds the edge {u, v}.
func edgeGone(gone map[int64]struct{}, u, v int32) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := gone[int64(u)<<32|int64(v)]
	return ok
}
