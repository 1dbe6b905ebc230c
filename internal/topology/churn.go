package topology

import (
	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
)

// SurviveParts maps a Theorem 1 partition through a graph removal onto
// the compacted surviving component g2 (see mapParts). oldToNew is the
// removal's id map (-1 = gone); goneEdges lists the explicitly removed
// edges in old ids. The census: kept counts parts untouched by the
// churn and remapped wholesale, repaired counts touched parts that
// re-validated, dropped counts the rest.
func SurviveParts(g2 *graph.Graph, parts []Part, oldToNew []int32, goneEdges [][2]int32, flat []int32) (out []Part, outFlat []int32, kept, repaired, dropped int) {
	out, flat, c := mapParts(g2, parts, oldToNew, goneEdges, nil, nil, flat, false)
	return out, flat, c.kept, c.repaired, c.dropped
}

// RegrowParts maps a pre-churn (anchor) Theorem 1 partition onto a
// re-grown component g2 (see mapParts). anchorToNew is the growth's
// pre-churn id map (-1 = still gone); stillGone lists the still-removed
// edges in pre-churn ids. prev is the partition currently served with
// prevToNew the growth's total survivor id map; it may be nil, in which
// case invalid parts are dropped. The census: kept counts parts serving
// exactly their current membership (including the fallback), regrown
// counts current parts that gained nodes back, readmitted counts parts
// with no current counterpart that re-validated from scratch, dropped
// counts parts still unservable. After a full restore the output is
// element-wise identical to the anchor partition.
func RegrowParts(g2 *graph.Graph, anchor []Part, anchorToNew []int32, stillGone [][2]int32, prev []Part, prevToNew []int32, flat []int32) (out []Part, outFlat []int32, kept, regrown, readmitted, dropped int) {
	out, flat, c := mapParts(g2, anchor, anchorToNew, stillGone, prev, prevToNew, flat, true)
	return out, flat, c.kept, c.repaired, c.readmitted, c.dropped
}

// partCensus counts what mapParts did with each part.
type partCensus struct{ kept, repaired, readmitted, dropped int }

// mapParts is the one churn mapping pass, for removals and growths
// alike: it maps partition parts through the id map toNew (-1 = gone)
// onto the compacted component g2. Parts untouched by the churn — every
// member present in g2 and no gone edge inside the part — are remapped
// wholesale: their induced subgraph is unchanged, so no re-check is
// needed. Touched parts are trimmed to their present members and
// re-validated (connected in g2, induced minimum degree ≥ 2, at least
// two nodes). The caller applies its own minimum-size filter
// afterwards: the fault bound it serves is not known until the census
// exists.
//
// grow selects the growth census. A growth also passes prev, the
// partition currently served, with prevToNew its total id map into g2:
// a part that fails re-validation — a restored node can return with too
// few of its part-neighbours — falls back to its currently served
// membership, which stays valid because every served node and edge
// persists into g2, so the served partition never loses a part across
// a growth. Removals pass no prev and pay for no owner lookup.
//
// flat, when non-nil, supplies the backing array for the output parts'
// node slices (grown as needed and returned), so one allocation holds
// every part. Part order follows parts; node slices stay ascending
// because the compactions assign new ids in increasing old-id order.
// Seeds follow their part when present and fall back to the part's
// smallest present node otherwise.
func mapParts(g2 *graph.Graph, parts []Part, toNew []int32, gone [][2]int32, prev []Part, prevToNew []int32, flat []int32, grow bool) (out []Part, outFlat []int32, c partCensus) {
	// Mark which parts the churn touched. Node churn: any member with
	// no new id. Edge churn: any gone edge with both endpoints in the
	// same part (partOf covers exactly the partitioned nodes — padded
	// partitions need not cover V).
	touched := make([]bool, len(parts))
	if len(gone) > 0 {
		partOf := make([]int32, len(toNew))
		for i := range partOf {
			partOf[i] = -1
		}
		for pi, p := range parts {
			for _, u := range p.Nodes {
				partOf[u] = int32(pi)
			}
		}
		for _, e := range gone {
			if pu := partOf[e[0]]; pu >= 0 && pu == partOf[e[1]] {
				touched[pu] = true
			}
		}
	}
	for pi, p := range parts {
		for _, u := range p.Nodes {
			if toNew[u] < 0 {
				touched[pi] = true
				break
			}
		}
	}

	// Locate each part's served counterpart: parts are disjoint and a
	// served part's members all persist into g2, so one owner id per g2
	// node resolves the match.
	var prevOwner []int32
	if len(prev) > 0 {
		prevOwner = make([]int32, g2.N())
		for i := range prevOwner {
			prevOwner[i] = -1
		}
		for j, p := range prev {
			for _, u := range p.Nodes {
				prevOwner[prevToNew[u]] = int32(j)
			}
		}
	}

	// One backing array, pre-sized so mid-loop growth can never split
	// the parts across two arrays. Served memberships are subsets of
	// their parts, so the total bounds the fallback appends too.
	total := 0
	for _, p := range parts {
		total += len(p.Nodes)
	}
	if cap(flat) < total {
		flat = make([]int32, 0, total)
	}
	flat = flat[:0]
	var mask *bitset.Set
	for pi, p := range parts {
		lo := len(flat)
		for _, u := range p.Nodes {
			if nu := toNew[u]; nu >= 0 {
				flat = append(flat, nu)
			}
		}
		nodes := flat[lo:len(flat):len(flat)]
		prevIdx := int32(-1)
		if prevOwner != nil {
			for _, u := range nodes {
				if j := prevOwner[u]; j >= 0 {
					prevIdx = j
					break
				}
			}
		}
		valid := !touched[pi]
		if !valid && len(nodes) >= 2 {
			if mask == nil {
				mask = bitset.New(g2.N())
			}
			valid = validPartOn(g2, nodes, mask)
		}
		if valid {
			seed := toNew[p.Seed]
			if seed < 0 {
				seed = nodes[0]
			}
			out = append(out, Part{Nodes: nodes, Seed: seed})
			switch {
			case !grow && !touched[pi]:
				c.kept++
			case !grow:
				c.repaired++
			case prevIdx < 0:
				c.readmitted++
			case len(nodes) == len(prev[prevIdx].Nodes):
				c.kept++
			default:
				c.repaired++
			}
			continue
		}
		flat = flat[:lo]
		if prevIdx < 0 {
			c.dropped++
			continue
		}
		// Monotonicity fallback: keep serving the current membership.
		pp := prev[prevIdx]
		for _, u := range pp.Nodes {
			flat = append(flat, prevToNew[u])
		}
		out = append(out, Part{Nodes: flat[lo:len(flat):len(flat)], Seed: prevToNew[pp.Seed]})
		c.kept++
	}
	return out, flat, c
}

// validPartOn is the Theorem 1 per-part re-validation: the candidate
// node set (in g2 ids) must be connected in g2 with induced minimum
// degree ≥ 2. mask is caller-supplied scratch over g2's nodes, handed
// back clear.
func validPartOn(g2 *graph.Graph, nodes []int32, mask *bitset.Set) bool {
	for _, u := range nodes {
		mask.Add(int(u))
	}
	ok := g2.ConnectedWithin(mask)
	for i := 0; ok && i < len(nodes); i++ {
		deg := 0
		for _, v := range g2.Neighbors(nodes[i]) {
			if mask.Contains(int(v)) {
				if deg++; deg >= 2 {
					break
				}
			}
		}
		ok = deg >= 2
	}
	for _, u := range nodes {
		mask.Remove(int(u))
	}
	return ok
}
