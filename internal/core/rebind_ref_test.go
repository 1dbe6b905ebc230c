package core

import (
	"errors"
	"fmt"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/topology"
)

// The churn derivation as it stood before removals and growths shared
// one mapping pass and one δ′/kernel derivation: two derivations in
// core and two partition mappers in topology. FuzzRebind holds the
// merged code to it, report for report and binding for binding. Only
// identifiers are renamed.

// refDeriveDelta dispatches on the delta direction and returns the id map
// the caches remap through: the removal's OldToNew (partial — flushes
// entries touching removed ids) or the growth's SurvivorToNew (total —
// every entry of the served component survives a growth).
func refDeriveDelta(b *binding, d graph.Delta) (*binding, *RebindReport, []int32, error) {
	switch dd := d.(type) {
	case *graph.Removal:
		nb, rep, err := refDeriveBinding(b, dd)
		if err != nil {
			return nil, nil, nil, err
		}
		return nb, rep, dd.OldToNew, nil
	case *graph.Growth:
		nb, rep, err := refDeriveGrowth(b, dd)
		if err != nil {
			return nil, nil, nil, err
		}
		return nb, rep, dd.SurvivorToNew, nil
	default:
		return nil, nil, nil, fmt.Errorf("core: unknown churn delta %T", d)
	}
}

// refDeriveBinding computes the degraded binding for a removal applied to
// binding b. Pure with respect to b (shared slices are never written),
// so concurrent readers of b are unaffected.
func refDeriveBinding(b *binding, rr *graph.Removal) (*binding, *RebindReport, error) {
	if b.g == nil {
		return nil, nil, errors.New("core: implicit (descriptor-backed) engines cannot rebind — churn removals are defined against a materialised graph")
	}
	if len(rr.OldToNew) != b.g.N() {
		return nil, nil, fmt.Errorf("core: removal maps %d nodes but the engine's graph has %d (removal must be produced from Engine.Graph())", len(rr.OldToNew), b.g.N())
	}
	g2 := rr.G
	if g2 == nil || g2.N() == 0 {
		return nil, nil, errors.New("core: removal left no surviving component to rebind to")
	}
	rep := &RebindReport{
		OldN: b.g.N(), NewN: g2.N(),
		RemovedNodes: rr.RemovedNodes, RemovedEdges: rr.RemovedEdges, Stranded: rr.Stranded,
		BaseDelta:    b.baseDelta,
		KernelBefore: kernelName(b.kernel),
	}
	nb := &binding{
		nw:        b.nw,
		g:         g2,
		adj:       g2,
		baseDelta: b.baseDelta,
		epoch:     b.epoch + 1,
		prev:      b, // the world a later graph.Restore regrows toward
	}

	// Connectivity budget: each removed node or edge can lower κ by at
	// most one, so the budget is a sound lower bound on κ(g2) as long
	// as the original bind's bound was (κ for NewEngine, δ itself for
	// NewGraphEngine). Stranded nodes left with the removed ones.
	nb.connBudget = b.connBudget - (rr.RemovedNodes + rr.Stranded) - rr.RemovedEdges

	// Partition survival: remap untouched parts, re-validate touched
	// ones. The whole partition survives, not just the candidates b
	// keeps (see binding.fullParts). A pre-churn partition error
	// carries over — there is nothing to survive.
	var parts2 []topology.Part
	if parts, err := b.fullParts(); err != nil {
		nb.partsErr = err
	} else {
		var kept, repaired, dropped int
		parts2, _, kept, repaired, dropped = refSurviveParts(g2, parts, rr.OldToNew, rr.GoneEdges, nil)
		rep.PartsKept, rep.PartsRepaired, rep.PartsDropped = kept, repaired, dropped
	}

	// Degraded bound δ′: the largest d not exceeding the connectivity
	// budget and the surviving minimum degree for which Theorem 1 still
	// has enough material — at least d+1 surviving parts of at least
	// d+1 nodes. (Part sizes need only exceed the bound actually
	// served, which is why SurviveParts leaves the size filter to us.)
	dmax := b.delta
	if nb.connBudget < dmax {
		dmax = nb.connBudget
	}
	if md := g2.MinDegree(); md < dmax {
		dmax = md
	}
	if dmax < 0 {
		// The survivor is a single connected component, so the bound
		// δ′ = 0 (diagnose under "no faults survive") is always sound
		// even after the budget is exhausted.
		dmax = 0
	}
	delta2 := -1
	if nb.partsErr == nil {
		for d := dmax; d >= 0; d-- {
			cnt := 0
			for _, p := range parts2 {
				if len(p.Nodes) >= d+1 {
					cnt++
				}
			}
			if cnt >= d+1 {
				delta2 = d
				break
			}
		}
	}
	if delta2 < 0 {
		nb.delta = 0
		if nb.partsErr == nil {
			nb.partsErr = ErrNoSurvivingPartition
		}
	} else {
		nb.delta = delta2
		served := parts2[:0] // parts2 owns its backing; filter in place
		for _, p := range parts2 {
			if len(p.Nodes) >= delta2+1 {
				served = append(served, p)
			}
		}
		nb.parts = served
	}
	rep.EffectiveDelta = nb.delta
	rep.PartsErr = nb.partsErr

	// Kernel survival: the bound descriptor described the old
	// adjacency; trust it on the survivor only if it verifies there.
	// The descriptor itself is carried through a fallback — it still
	// describes the pre-churn structure, which is exactly what a growth
	// rebind needs to re-verify for the generic→kernel promotion.
	if b.desc != nil {
		nb.desc = b.desc
		if err := graph.VerifyCayley(g2, b.desc); err == nil {
			nb.kernel = bindFinalKernel(b.desc, g2)
		} else {
			rep.KernelFallbackReason = fmt.Sprintf("bound %s descriptor no longer verifies on the surviving component (%v); final pass falls back to the generic kernel", kernelName(b.kernel), err)
		}
	}
	rep.KernelAfter = kernelName(nb.kernel)

	nb.degraded = b.degraded || nb.delta < b.delta ||
		rr.RemovedNodes+rr.RemovedEdges+rr.Stranded > 0
	nb.compact()
	return nb, rep, nil
}

// refDeriveGrowth computes the recovered binding for a growth applied to
// binding b — the ascending twin of refDeriveBinding. Pure with respect to
// b and its anchor (shared slices are never written), so concurrent
// readers are unaffected.
func refDeriveGrowth(b *binding, gr *graph.Growth) (*binding, *RebindReport, error) {
	if b.g == nil {
		return nil, nil, errors.New("core: implicit (descriptor-backed) engines cannot rebind — churn deltas are defined against a materialised graph")
	}
	anchor := b.prev
	if anchor == nil {
		return nil, nil, errors.New("core: engine has no churn to recover from — growth rebinds regrow a previous removal")
	}
	if len(gr.SurvivorToNew) != b.g.N() {
		return nil, nil, fmt.Errorf("core: growth maps %d survivors but the engine's graph has %d (growth must be produced by graph.Restore from the removal this engine last survived)", len(gr.SurvivorToNew), b.g.N())
	}
	if anchor.g == nil || len(gr.OldToNew) != anchor.g.N() {
		return nil, nil, fmt.Errorf("core: growth is anchored at a %d-node graph but the engine's pre-churn graph has %d nodes", len(gr.OldToNew), anchor.g.N())
	}
	g2 := gr.G
	if g2 == nil || g2.N() == 0 {
		return nil, nil, errors.New("core: growth carries no component to rebind to")
	}
	rm := gr.Remaining
	rep := &RebindReport{
		OldN: b.g.N(), NewN: g2.N(),
		Grew:       true,
		Readmitted: gr.Readmitted, Reconnected: gr.Reconnected, StillGone: gr.StillGone,
		BaseDelta:    b.baseDelta,
		KernelBefore: kernelName(b.kernel),
	}
	nb := &binding{
		nw:        b.nw,
		g:         g2,
		adj:       g2,
		baseDelta: b.baseDelta,
		epoch:     b.epoch + 1,
		prev:      anchor, // further growths keep regrowing toward the same world
	}
	if gr.StillGone == 0 && len(rm.GoneEdges) == 0 {
		// Full restore: the new binding is the anchor's world, ids and
		// all, so its recovery frame is whatever the anchor's was. This
		// is what lets stacked removals unwind — fully regrowing the
		// latest removal re-exposes the one beneath it.
		nb.prev = anchor.prev
	}

	// The budget formula run in reverse: re-derive it from the anchor's
	// budget and what is still gone, so restored structure hands its
	// decrement back. A full restore recovers the anchor budget exactly.
	nb.connBudget = anchor.connBudget - (rm.RemovedNodes + rm.Stranded) - rm.RemovedEdges

	// Partition re-growth: re-admit the anchor partition as far as the
	// growth allows, falling back per part to the currently served
	// membership (see refRegrowParts) — the served partition
	// never loses a part across a growth. An anchor-time partition
	// error carries over; a post-removal ErrNoSurvivingPartition does
	// not — re-growth is exactly what can lift it. Both partitions are
	// whole (see binding.fullParts).
	var parts2 []topology.Part
	if anchorParts, err := anchor.fullParts(); err != nil {
		nb.partsErr = err
	} else {
		prevParts, _ := b.fullParts() // nil while b serves no partition
		var kept, regrown, readmitted, dropped int
		parts2, _, kept, regrown, readmitted, dropped = refRegrowParts(g2, anchorParts, gr.OldToNew, rm.GoneEdges, prevParts, gr.SurvivorToNew, nil)
		rep.PartsKept, rep.PartsRepaired, rep.PartsReadmitted, rep.PartsDropped = kept, regrown, readmitted, dropped
	}

	// δ′ ascent: the same bound search as the descent, ceilinged by the
	// anchor's δ instead of the degraded one. With full structure back
	// the budget, minimum degree and part census all recover, so δ′
	// lands on δ.
	dmax := anchor.delta
	if nb.connBudget < dmax {
		dmax = nb.connBudget
	}
	if md := g2.MinDegree(); md < dmax {
		dmax = md
	}
	if dmax < 0 {
		dmax = 0
	}
	delta2 := -1
	if nb.partsErr == nil {
		for d := dmax; d >= 0; d-- {
			cnt := 0
			for _, p := range parts2 {
				if len(p.Nodes) >= d+1 {
					cnt++
				}
			}
			if cnt >= d+1 {
				delta2 = d
				break
			}
		}
	}
	switch {
	case nb.partsErr != nil:
		// The anchor had no partition either: serve the ascent ceiling,
		// as the anchor served its bound, so a full restore lands on
		// the bind-time δ.
		nb.delta = dmax
	case delta2 < 0:
		nb.delta = 0
		nb.partsErr = ErrNoSurvivingPartition
	default:
		nb.delta = delta2
		served := parts2[:0]
		for _, p := range parts2 {
			if len(p.Nodes) >= delta2+1 {
				served = append(served, p)
			}
		}
		nb.parts = served
	}
	rep.EffectiveDelta = nb.delta
	rep.PartsErr = nb.partsErr

	// Kernel recovery: re-verify the kept descriptor against the
	// re-grown component. Once the full structure is back this
	// succeeds and the specialised kernel re-binds — the
	// generic→kernel promotion the fallback path was holding the
	// descriptor for.
	if b.desc != nil {
		nb.desc = b.desc
		if err := graph.VerifyCayley(g2, b.desc); err == nil {
			nb.kernel = bindFinalKernel(b.desc, g2)
			if b.kernel == nil && nb.kernel != nil {
				rep.KernelPromotion = fmt.Sprintf("bound descriptor verifies again on the re-grown component; final pass promoted from the generic kernel to %s", kernelName(nb.kernel))
			}
		} else {
			rep.KernelFallbackReason = fmt.Sprintf("bound descriptor still does not verify on the re-grown component (%v); final pass stays on the generic kernel", err)
		}
	}
	rep.KernelAfter = kernelName(nb.kernel)

	// The degraded stamp clears exactly when the pre-churn structure is
	// fully back: nothing still gone means the re-grown graph is the
	// anchor graph, ids and all.
	nb.degraded = anchor.degraded || gr.StillGone > 0 || len(rm.GoneEdges) > 0
	nb.compact()
	return nb, rep, nil
}

// refSurviveParts maps a Theorem 1 partition through a graph removal onto
// the compacted surviving component g2. Parts untouched by the churn —
// every node survives into the component and no removed edge ran inside
// the part — are remapped wholesale: their connectivity and induced
// degrees are preserved by construction, so no re-check is needed.
// Touched parts are trimmed to their surviving nodes and re-validated
// (connected in g2, induced minimum degree ≥ 2, at least two nodes);
// parts that pass are kept as "repaired", the rest are dropped. The
// caller applies its own minimum-size filter afterwards (the effective
// fault bound is not known until the surviving part census exists).
//
// oldToNew is the removal's id map (-1 = gone); goneEdges lists the
// explicitly removed edges in old ids. flat, when non-nil, supplies the
// backing array for the surviving parts' node slices (grown as needed
// and returned), so a rebinding engine reuses one allocation across
// churn events. Part order is preserved; remapped node slices stay
// ascending because the compaction assigns new ids in increasing old-id
// order. Seeds follow their part when they survive and fall back to the
// part's smallest surviving node otherwise.
func refSurviveParts(g2 *graph.Graph, parts []topology.Part, oldToNew []int32, goneEdges [][2]int32, flat []int32) (out []topology.Part, outFlat []int32, kept, repaired, dropped int) {
	// Mark which parts the churn touched. Node churn: any part member
	// with no new id. Edge churn: any removed edge with both endpoints
	// in the same part (partOf covers exactly the partitioned nodes —
	// padded partitions need not cover V).
	touched := make([]bool, len(parts))
	var partOf []int32
	if len(goneEdges) > 0 {
		partOf = make([]int32, len(oldToNew))
		for i := range partOf {
			partOf[i] = -1
		}
		for pi, p := range parts {
			for _, u := range p.Nodes {
				partOf[u] = int32(pi)
			}
		}
		for _, e := range goneEdges {
			if pu := partOf[e[0]]; pu >= 0 && pu == partOf[e[1]] {
				touched[pu] = true
			}
		}
	}
	for pi, p := range parts {
		if touched[pi] {
			continue
		}
		for _, u := range p.Nodes {
			if oldToNew[u] < 0 {
				touched[pi] = true
				break
			}
		}
	}

	// One backing array for every surviving part (the allocation-profile
	// concern of rangeParts): pre-size it so mid-loop growth can never
	// split the parts across two arrays.
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
			if nu := oldToNew[u]; nu >= 0 {
				flat = append(flat, nu)
			}
		}
		nodes := flat[lo:len(flat):len(flat)]
		if !touched[pi] {
			out = append(out, topology.Part{Nodes: nodes, Seed: oldToNew[p.Seed]})
			kept++
			continue
		}
		if len(nodes) < 2 {
			flat = flat[:lo]
			dropped++
			continue
		}
		if mask == nil {
			mask = bitset.New(g2.N())
		}
		if !refValidPartOn(g2, nodes, mask) {
			flat = flat[:lo]
			dropped++
			continue
		}
		seed := oldToNew[p.Seed]
		if seed < 0 {
			seed = nodes[0]
		}
		out = append(out, topology.Part{Nodes: nodes, Seed: seed})
		repaired++
	}
	return out, flat, kept, repaired, dropped
}

// refValidPartOn is the Theorem 1 per-part re-validation shared by
// refSurviveParts and refRegrowParts: the candidate node set (in g2 ids) must
// be connected in g2 with induced minimum degree ≥ 2. mask is caller-
// supplied scratch over g2's nodes, handed back clear.
func refValidPartOn(g2 *graph.Graph, nodes []int32, mask *bitset.Set) bool {
	ok := true
	for _, u := range nodes {
		mask.Add(int(u))
	}
	if !g2.ConnectedWithin(mask) {
		ok = false
	}
	if ok {
	degrees:
		for _, u := range nodes {
			deg := 0
			for _, v := range g2.Neighbors(u) {
				if mask.Contains(int(v)) {
					deg++
					if deg >= 2 {
						continue degrees
					}
				}
			}
			ok = false
			break
		}
	}
	for _, u := range nodes {
		mask.Remove(int(u))
	}
	return ok
}

// refRegrowParts maps a pre-churn (anchor) Theorem 1 partition onto a
// re-grown component g2 — the ascending twin of refSurviveParts. Each
// anchor part is re-admitted as far as the growth allows: parts whose
// members are all present again and untouched by still-gone edges are
// remapped wholesale (their induced subgraph is identical to the anchor
// graph's, so no re-check is needed), partially present parts are
// trimmed to their present nodes and re-validated exactly like
// refSurviveParts repairs (connected in g2, induced minimum degree ≥ 2, at
// least two nodes). The caller applies its own minimum-size filter
// afterwards, as with refSurviveParts.
//
// prev is the partition currently served (the one refSurviveParts produced
// for the pre-growth survivor) with prevToNew the growth's total
// survivor id map; it anchors the census and the monotonicity fallback:
// a re-grown part that fails re-validation — a restored node can return
// with too few of its part-neighbours — falls back to its currently
// served membership, which stays valid because every survivor node and
// edge persists into g2. The served partition therefore never loses a
// part across a growth. prev may be nil (no current partition to fall
// back on), in which case invalid parts are dropped.
//
// The census: kept counts parts serving exactly their current
// membership (including the fallback), regrown counts current parts
// that gained nodes back, readmitted counts parts with no current
// counterpart that re-validated from scratch, dropped counts parts
// still unservable. anchorToNew is the growth's pre-churn id map (-1 =
// still gone); stillGone lists the still-removed edges in pre-churn
// ids. flat optionally supplies the backing array as in refSurviveParts.
// Part order follows the anchor partition — after a full restore the
// output is element-wise identical to it.
func refRegrowParts(g2 *graph.Graph, anchor []topology.Part, anchorToNew []int32, stillGone [][2]int32, prev []topology.Part, prevToNew []int32, flat []int32) (out []topology.Part, outFlat []int32, kept, regrown, readmitted, dropped int) {
	// Mark which anchor parts the residual churn still touches: a member
	// still gone, or a still-gone edge with both endpoints inside.
	touched := make([]bool, len(anchor))
	if len(stillGone) > 0 {
		partOf := make([]int32, len(anchorToNew))
		for i := range partOf {
			partOf[i] = -1
		}
		for pi, p := range anchor {
			for _, u := range p.Nodes {
				partOf[u] = int32(pi)
			}
		}
		for _, e := range stillGone {
			if pu := partOf[e[0]]; pu >= 0 && pu == partOf[e[1]] {
				touched[pu] = true
			}
		}
	}
	for pi, p := range anchor {
		if touched[pi] {
			continue
		}
		for _, u := range p.Nodes {
			if anchorToNew[u] < 0 {
				touched[pi] = true
				break
			}
		}
	}

	// Locate each anchor part's current counterpart. Parts are disjoint
	// and a current part's members all persist into g2, so one owner id
	// per g2 node resolves the match.
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

	// One backing array; current memberships are subsets of their anchor
	// parts, so the anchor total bounds the fallback appends too.
	total := 0
	for _, p := range anchor {
		total += len(p.Nodes)
	}
	if cap(flat) < total {
		flat = make([]int32, 0, total)
	}
	flat = flat[:0]
	var mask *bitset.Set
	for pi, p := range anchor {
		lo := len(flat)
		for _, u := range p.Nodes {
			if nu := anchorToNew[u]; nu >= 0 {
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
			valid = refValidPartOn(g2, nodes, mask)
		}
		if valid {
			seed := anchorToNew[p.Seed]
			if seed < 0 {
				seed = nodes[0]
			}
			out = append(out, topology.Part{Nodes: nodes, Seed: seed})
			switch {
			case prevIdx < 0:
				readmitted++
			case len(nodes) == len(prev[prevIdx].Nodes):
				kept++
			default:
				regrown++
			}
			continue
		}
		flat = flat[:lo]
		if prevIdx < 0 {
			dropped++
			continue
		}
		// Monotonicity fallback: keep serving the current membership.
		pp := prev[prevIdx]
		for _, u := range pp.Nodes {
			flat = append(flat, prevToNew[u])
		}
		out = append(out, topology.Part{Nodes: flat[lo:len(flat):len(flat)], Seed: prevToNew[pp.Seed]})
		kept++
	}
	return out, flat, kept, regrown, readmitted, dropped
}
