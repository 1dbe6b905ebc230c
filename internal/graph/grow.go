package graph

import (
	"fmt"
	"slices"

	"comparisondiag/internal/bitset"
)

// Delta is a churn event an engine can rebind across: the loss direction
// (*Removal, PR 6) or the gain direction (*Growth). The interface is
// sealed — the two concrete types are the only deltas the compaction
// invariants hold for.
type Delta interface{ churnDelta() }

func (*Removal) churnDelta() {}
func (*Growth) churnDelta()  {}

// Growth is the outcome of re-admitting removed structure: the compacted
// CSR of the re-grown component plus the id maps an engine needs to
// ascend back toward the pre-churn world. It is the gain-direction
// counterpart of Removal and the other unit of churn core.Engine.Rebind
// accepts.
//
// Like Removal, node ids in G are assigned in increasing pre-churn-id
// order, so OldToNew and SurvivorToNew are monotone and every remapped
// ascending adjacency or part stays ascending.
type Growth struct {
	// G is the re-grown component, compacted to node ids [0, G.N()).
	// After a full restore of a connected original it is the pre-churn
	// graph itself.
	G *Graph
	// OldToNew maps pre-churn (original-graph) node ids to re-grown ones;
	// -1 for nodes still gone.
	OldToNew []int32
	// NewToOld maps re-grown node ids back to pre-churn ones (ascending).
	NewToOld []int32
	// SurvivorToNew maps the removal's survivor ids (the graph currently
	// being served) into the re-grown component. It is total — every
	// survivor node and edge persists through a restore, so growth never
	// invalidates what an engine is serving.
	SurvivorToNew []int32
	// Readmitted counts explicitly restored nodes present in G again;
	// Reconnected counts stranded survivors the growth pulled back into
	// the component; StillGone counts pre-churn nodes absent from G.
	Readmitted, Reconnected, StillGone int
	// RestoredEdges counts explicitly restored edges present in G again.
	RestoredEdges int
	// Remaining is the residual removal: the pre-churn graph minus
	// whatever is still gone, with Remaining.G == G. Chain further
	// restores through it (Restore(gr.Remaining, ...)).
	Remaining *Removal
}

// Restore re-admits previously removed nodes and edges of a Removal and
// returns the re-grown component: the connected component of the
// pre-churn graph minus everything still removed that contains the
// currently served survivor (so growth is monotone — the serving
// component only ever gains nodes). Stranded survivors reconnect
// automatically once the structure linking them returns; restoring a
// node that was never removed (or an edge never gone) is a no-op, and
// out-of-range ids panic, mirroring Remove. The whole operation is
// O(n + m) on the pre-churn graph.
//
// Restoring every removed node and edge of a connected original yields
// the original graph itself as G, with identity id maps (see Flap): a
// descriptor-backed original knows it is connected from its mask rank
// and runs no walk, and a table-backed one proves it with the component
// walk and copies nothing.
func Restore(rr *Removal, nodes []int32, edges [][2]int32) *Growth {
	g := rr.orig
	if g == nil {
		panic("graph: Restore needs a Removal produced by Graph.Remove")
	}
	still := rr.removed.Clone()
	readmitReq := bitset.New(g.n)
	for _, u := range nodes {
		if u < 0 || int(u) >= g.n {
			panic(fmt.Sprintf("graph: Restore node %d out of range [0,%d)", u, g.n))
		}
		if still.Contains(int(u)) {
			still.Remove(int(u))
			readmitReq.Add(int(u))
		}
	}
	var restored map[int64]struct{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || int(u) >= g.n || int(v) >= g.n {
			panic(fmt.Sprintf("graph: Restore edge %d-%d out of range [0,%d)", u, v, g.n))
		}
		if u > v {
			u, v = v, u
		}
		if restored == nil {
			restored = make(map[int64]struct{}, len(edges))
		}
		restored[int64(u)<<32|int64(v)] = struct{}{}
	}
	var stillNodes []int32
	still.ForEach(func(i int) bool {
		stillNodes = append(stillNodes, int32(i))
		return true
	})
	var stillEdges [][2]int32
	for _, e := range rr.GoneEdges {
		if restored != nil {
			if _, ok := restored[int64(e[0])<<32|int64(e[1])]; ok {
				continue
			}
		}
		stillEdges = append(stillEdges, e)
	}

	// Re-run the removal with only the residual churn, anchored at the
	// smallest currently served survivor: its component is the one the
	// engine's clients live in, so that is the component to grow. With
	// nothing still gone from a descriptor-backed graph the mask rank
	// already says whether that component is the whole graph.
	var res *Removal
	if len(stillNodes) == 0 && len(stillEdges) == 0 && g.gen != nil && g.Connected() {
		res = g.whole(still)
	} else {
		anchor := int32(-1)
		if len(rr.NewToOld) > 0 {
			anchor = rr.NewToOld[0]
		}
		res = g.remove(stillNodes, stillEdges, anchor)
	}

	gr := &Growth{
		G:         res.G,
		OldToNew:  res.OldToNew,
		NewToOld:  res.NewToOld,
		Remaining: res,
	}
	gr.SurvivorToNew = make([]int32, len(rr.NewToOld))
	for i, old := range rr.NewToOld {
		gr.SurvivorToNew[i] = res.OldToNew[old]
	}
	for u := 0; u < g.n; u++ {
		nowHere := res.OldToNew[u] >= 0
		if rr.OldToNew[u] < 0 && nowHere {
			if readmitReq.Contains(u) {
				gr.Readmitted++
			} else {
				gr.Reconnected++
			}
		}
		if !nowHere {
			gr.StillGone++
		}
	}
	if restored != nil {
		for _, e := range rr.GoneEdges {
			if _, ok := restored[int64(e[0])<<32|int64(e[1])]; ok &&
				res.OldToNew[e[0]] >= 0 && res.OldToNew[e[1]] >= 0 {
				gr.RestoredEdges++
			}
		}
	}
	return gr
}

// whole is the removal of nothing from a connected g: g itself, with
// identity id maps. removed is the (empty) removed-node set it records.
func (g *Graph) whole(removed *bitset.Set) *Removal {
	oldToNew := make([]int32, g.n)
	for i := range oldToNew {
		oldToNew[i] = int32(i)
	}
	return &Removal{G: g, OldToNew: oldToNew, NewToOld: slices.Clone(oldToNew), orig: g, removed: removed}
}

// Flap removes the given nodes and edges and immediately restores them —
// the round-trip churn event of a node leaving and rejoining. For a
// connected graph the returned Growth's G is g itself: the removal
// compacts survivors in ascending id order and the full restore
// re-admits everything, so the round trip is the identity on ids, not
// merely an isomorphism.
func (g *Graph) Flap(nodes []int32, edges [][2]int32) (*Removal, *Growth) {
	rr := g.Remove(nodes, edges)
	return rr, Restore(rr, nodes, edges)
}
