package core

import (
	"errors"
	"fmt"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/topology"
)

// ErrNoSurvivingPartition means churn left the surviving component
// without any valid Theorem 1 partition, even at fault bound 0: the
// rebound engine holds no parts and every Diagnose call fails with this
// error (wrapped), mirroring how a fresh bind reports
// topology.ErrNoPartition.
var ErrNoSurvivingPartition = errors.New("core: churn left no valid Theorem 1 partition on the surviving component")

// RebindReport describes what one Rebind or Survivor call did — the
// observability record for churn events, in both directions.
type RebindReport struct {
	OldN, NewN int // graph sizes before/after

	// Grew distinguishes the delta direction: false for a removal
	// rebind, true for a growth rebind. The loss census fields are zero
	// on growth rebinds and vice versa.
	Grew bool

	// Churn census, copied from the graph.Removal: explicitly removed
	// nodes, explicitly removed surviving-relevant edges, and nodes
	// stranded outside the largest surviving component.
	RemovedNodes, RemovedEdges, Stranded int

	// Recovery census, copied from the graph.Growth: nodes explicitly
	// re-admitted, stranded survivors reconnected, and pre-churn nodes
	// still gone after the growth.
	Readmitted, Reconnected, StillGone int

	// BaseDelta is the δ of the original (pre-churn) bind;
	// EffectiveDelta is the degraded bound δ′ the rebound engine serves.
	BaseDelta, EffectiveDelta int

	// Partition census. On removals (topology.SurviveParts): parts
	// remapped untouched, parts trimmed and re-validated successfully,
	// and parts dropped. On growths (topology.RegrowParts): PartsKept
	// counts parts serving their pre-growth membership, PartsRepaired
	// counts parts that regrew, PartsReadmitted counts parts with no
	// served counterpart that re-validated from scratch. PartsErr
	// records the rebound engine's partition error
	// (ErrNoSurvivingPartition, or a carried-over pre-churn error), nil
	// when the engine can serve.
	PartsKept, PartsRepaired, PartsReadmitted, PartsDropped int
	PartsErr                                                error

	// Final-pass kernel transition. When a declared/bound Cayley
	// descriptor no longer verifies on the surviving component the
	// engine falls back to the generic kernel and
	// KernelFallbackReason says why; empty when the kernel carried
	// over (or there was none). The descriptor itself is kept through
	// the fallback, and a growth rebind re-verifies it: once the full
	// structure returns the specialised kernel re-binds automatically,
	// recorded in KernelPromotion.
	KernelBefore, KernelAfter string
	KernelFallbackReason      string
	KernelPromotion           string

	// Result-cache census over the caches passed to Rebind: entries
	// flushed because they could not survive the churn, and entries
	// remapped into the new id space.
	CacheFlushed, CacheKept int
}

// String renders the report as a single human-readable line.
func (r *RebindReport) String() string {
	var s string
	if r.Grew {
		s = fmt.Sprintf("regrow %d->%d nodes (+%d readmitted, +%d reconnected, %d still gone): delta %d->%d, parts %d kept/%d regrown/%d readmitted/%d dropped, kernel %s->%s, cache %d flushed/%d kept",
			r.OldN, r.NewN, r.Readmitted, r.Reconnected, r.StillGone,
			r.BaseDelta, r.EffectiveDelta,
			r.PartsKept, r.PartsRepaired, r.PartsReadmitted, r.PartsDropped,
			r.KernelBefore, r.KernelAfter,
			r.CacheFlushed, r.CacheKept)
	} else {
		s = fmt.Sprintf("rebind %d->%d nodes (-%d nodes, -%d edges, %d stranded): delta %d->%d, parts %d kept/%d repaired/%d dropped, kernel %s->%s, cache %d flushed/%d kept",
			r.OldN, r.NewN, r.RemovedNodes, r.RemovedEdges, r.Stranded,
			r.BaseDelta, r.EffectiveDelta,
			r.PartsKept, r.PartsRepaired, r.PartsDropped,
			r.KernelBefore, r.KernelAfter,
			r.CacheFlushed, r.CacheKept)
	}
	if r.PartsErr != nil {
		s += fmt.Sprintf(" [parts: %v]", r.PartsErr)
	}
	if r.KernelFallbackReason != "" {
		s += fmt.Sprintf(" [kernel: %s]", r.KernelFallbackReason)
	}
	if r.KernelPromotion != "" {
		s += fmt.Sprintf(" [kernel: %s]", r.KernelPromotion)
	}
	return s
}

// Rebind atomically re-targets the engine at the surviving component of
// a graph.Removal produced from the engine's current graph
// (e.Graph().RemoveNodes / RemoveEdges / Remove), instead of forcing
// callers to rebuild an engine from scratch when the network churns.
// The rebind is incremental: the Theorem 1 partition is re-derived from
// the existing parts (untouched parts are remapped wholesale, only
// parts touched by the churn are re-validated — see
// topology.SurviveParts), the degraded fault bound δ′ is recomputed
// from the surviving census, the bound Cayley descriptor is re-verified
// against the surviving component (falling back to the generic final
// pass, with the reason recorded in the report, when the structure did
// not survive), and the lazily built tightened-partition cache is
// invalidated. The engine's scratch pool carries over — pooled
// scratches resize lazily — so steady-state diagnosis stays
// allocation-free across the rebind.
//
// Any ResultCaches the caller has been passing to this engine's
// diagnoses should be handed in here: entries keyed on removed ids are
// flushed and the rest are remapped into the new id space (see
// ResultCache.Rebind); the census lands in the report. In-flight
// diagnoses concurrent with Rebind are safe — each call runs against
// one immutable binding snapshot, and the binding epoch keys cache
// traffic to its own generation — they simply complete against the
// pre-churn world.
//
// After a successful rebind the engine reports Degraded() and stamps
// Stats.Degraded/EffectiveDelta on every diagnosis. A removal that
// leaves no valid partition still succeeds: the engine then serves
// errors, exactly like a fresh bind on a partitionless instance
// (PartsErr returns ErrNoSurvivingPartition). Rebind only fails — and
// changes nothing — when the removal is malformed (wrong graph, empty
// survivor).
//
// Rebinds compose in both directions: a second Rebind takes a Removal
// produced from the current (post-churn) graph, and a growth rebind
// takes a graph.Growth produced by graph.Restore from the removal the
// engine last survived (or from a previous growth's Remaining). A
// growth ascends: δ′ grows back toward δ under the same budget formula
// run in reverse, dropped parts are re-admitted (topology.RegrowParts),
// the kept descriptor is re-verified so the specialised kernel
// re-binds once full structure returns, cache entries are remapped
// through the growth's total survivor id map, and a growth that
// restores the complete pre-churn structure clears the degraded stamp
// — diagnoses become bit-identical to a fresh bind's.
func (e *Engine) Rebind(d graph.Delta, caches ...*ResultCache) (*RebindReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.bnd.Load()
	nb, rep, idMap, err := deriveDelta(b, d)
	if err != nil {
		return nil, err
	}
	// Flush before publishing: entries rewritten here carry the new
	// epoch, and nothing can insert under that epoch until the new
	// binding is visible. Stale inserts racing us keep the old epoch
	// and are unreachable after the swap (they age out of the LRU).
	for _, c := range caches {
		if c == nil {
			continue
		}
		fl, kp := c.Rebind(idMap, nb.g.N(), b.delta, nb.delta, nb.epoch, nb.degraded)
		rep.CacheFlushed += fl
		rep.CacheKept += kp
	}
	e.bnd.Store(nb)
	return rep, nil
}

// Survivor derives a new engine for the delta's resulting component
// without touching e — the non-mutating sibling of Rebind for callers
// that want to keep serving the original binding (or diagnose a
// hypothetical churn). The derivation is identical to Rebind's; the
// new engine starts with its own empty scratch pool, and no caches are
// rewritten (pass the survivor its own fresh ResultCache).
func (e *Engine) Survivor(d graph.Delta) (*Engine, *RebindReport, error) {
	nb, rep, _, err := deriveDelta(e.bnd.Load(), d)
	if err != nil {
		return nil, nil, err
	}
	ne := &Engine{}
	ne.bnd.Store(nb)
	return ne, rep, nil
}

// deriveDelta dispatches on the delta direction and returns the id map
// the caches remap through: the removal's OldToNew (partial — flushes
// entries touching removed ids) or the growth's SurvivorToNew (total —
// every entry of the served component survives a growth).
func deriveDelta(b *binding, d graph.Delta) (*binding, *RebindReport, []int32, error) {
	switch dd := d.(type) {
	case *graph.Removal:
		nb, rep, err := deriveBinding(b, dd)
		if err != nil {
			return nil, nil, nil, err
		}
		return nb, rep, dd.OldToNew, nil
	case *graph.Growth:
		nb, rep, err := deriveGrowth(b, dd)
		if err != nil {
			return nil, nil, nil, err
		}
		return nb, rep, dd.SurvivorToNew, nil
	default:
		return nil, nil, nil, fmt.Errorf("core: unknown churn delta %T", d)
	}
}

// deriveBinding computes the degraded binding for a removal applied to
// binding b. Pure with respect to b (shared slices are never written),
// so concurrent readers of b are unaffected.
func deriveBinding(b *binding, rr *graph.Removal) (*binding, *RebindReport, error) {
	if b.g == nil {
		return nil, nil, errors.New("core: implicit (descriptor-backed) engines cannot rebind — churn removals are defined against a materialised graph")
	}
	if len(rr.OldToNew) != b.g.N() {
		return nil, nil, fmt.Errorf("core: removal maps %d nodes but the engine's graph has %d (removal must be produced from Engine.Graph())", len(rr.OldToNew), b.g.N())
	}
	if rr.G == nil || rr.G.N() == 0 {
		return nil, nil, errors.New("core: removal left no surviving component to rebind to")
	}
	rep := &RebindReport{RemovedNodes: rr.RemovedNodes, RemovedEdges: rr.RemovedEdges, Stranded: rr.Stranded}

	// Partition survival: remap untouched parts, re-validate touched
	// ones. The whole partition survives, not just the candidates b
	// keeps (see binding.fullParts). A pre-churn partition error
	// carries over — there is nothing to survive.
	parts, err := b.fullParts()
	if err == nil {
		parts, _, rep.PartsKept, rep.PartsRepaired, rep.PartsDropped = topology.SurviveParts(rr.G, parts, rr.OldToNew, rr.GoneEdges, nil)
	}
	return derive(b, b, rr, parts, err, rep), rep, nil
}

// deriveGrowth computes the recovered binding for a growth applied to
// binding b — the ascending twin of deriveBinding. Pure with respect to
// b and its anchor (shared slices are never written), so concurrent
// readers are unaffected.
func deriveGrowth(b *binding, gr *graph.Growth) (*binding, *RebindReport, error) {
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
	if gr.G == nil || gr.G.N() == 0 {
		return nil, nil, errors.New("core: growth carries no component to rebind to")
	}
	rm := gr.Remaining
	rep := &RebindReport{Grew: true, Readmitted: gr.Readmitted, Reconnected: gr.Reconnected, StillGone: gr.StillGone}

	// Partition re-growth: re-admit the anchor partition as far as the
	// growth allows, falling back per part to the currently served
	// membership (see topology.RegrowParts) — the served partition
	// never loses a part across a growth. An anchor-time partition
	// error carries over; a post-removal ErrNoSurvivingPartition does
	// not — re-growth is exactly what can lift it. Both partitions are
	// whole (see binding.fullParts).
	parts, err := anchor.fullParts()
	if err == nil {
		prevParts, _ := b.fullParts() // nil while b serves no partition
		parts, _, rep.PartsKept, rep.PartsRepaired, rep.PartsReadmitted, rep.PartsDropped = topology.RegrowParts(gr.G, parts, gr.OldToNew, rm.GoneEdges, prevParts, gr.SurvivorToNew, nil)
	}
	nb := derive(b, anchor, rm, parts, err, rep)
	if gr.StillGone == 0 && len(rm.GoneEdges) == 0 {
		// Full restore: the new binding is the anchor's world, ids and
		// all, so its recovery frame is whatever the anchor's was. This
		// is what lets stacked removals unwind — fully regrowing the
		// latest removal re-exposes the one beneath it.
		nb.prev = anchor.prev
	}
	return nb, rep, nil
}

// derive is the churn rule both directions share. from is the world rm
// removes from: b itself for a removal, the recovery anchor for a
// growth, whose residual removal (graph.Growth.Remaining) reaches the
// re-grown component — so a growth runs the descent's formulas in
// reverse, from the anchor. parts is from's partition mapped onto rm.G
// (nil with partsErr set when there was none to map); rep.Grew picks
// the direction. derive fills the rest of rep.
func derive(b, from *binding, rm *graph.Removal, parts []topology.Part, partsErr error, rep *RebindReport) *binding {
	g2 := rm.G
	rep.OldN, rep.NewN = b.g.N(), g2.N()
	rep.BaseDelta, rep.KernelBefore = b.baseDelta, kernelName(b.kernel)
	nb := &binding{
		nw:        b.nw,
		g:         g2,
		adj:       servedAdjacency(g2),
		baseDelta: b.baseDelta,
		partsErr:  partsErr,
		desc:      b.desc,
		declared:  b.declared,
		epoch:     b.epoch + 1,
		prev:      from, // the world a later graph.Restore regrows toward
	}

	// Connectivity budget: each removed node or edge can lower κ by at
	// most one, so the budget is a sound lower bound on κ(g2) as long
	// as the original bind's bound was (κ for NewEngine, δ itself for
	// NewGraphEngine). Stranded nodes left with the removed ones. On a
	// growth only what is still gone counts, so restored structure
	// hands its decrement back and a full restore recovers the anchor
	// budget exactly.
	nb.connBudget = from.connBudget - (rm.RemovedNodes + rm.Stranded) - rm.RemovedEdges

	// Fault bound δ′: the largest d not exceeding from's δ, the
	// connectivity budget and the minimum degree for which Theorem 1
	// still has enough material — at least d+1 parts of at least d+1
	// nodes (part sizes need only exceed the bound actually served,
	// which is why the mapping leaves the size filter to us). The
	// survivor is a single connected component, so δ′ = 0 ("no faults
	// survive") is always sound even after the budget is exhausted.
	// With full structure back every input recovers and δ′ lands on δ.
	dmax := max(0, min(from.delta, nb.connBudget, g2.MinDegree()))
	delta2 := -1
	for d := dmax; partsErr == nil && d >= 0 && delta2 < 0; d-- {
		cnt := 0
		for _, p := range parts {
			if len(p.Nodes) >= d+1 {
				cnt++
			}
		}
		if cnt >= d+1 {
			delta2 = d
		}
	}
	switch {
	case partsErr != nil && rep.Grew:
		// The anchor had no partition either: serve the ascent ceiling,
		// as the anchor served its bound, so a full restore lands on
		// the bind-time δ. A removal serves δ′ = 0.
		nb.delta = dmax
	case partsErr != nil:
	case delta2 < 0:
		nb.partsErr = ErrNoSurvivingPartition
	default:
		nb.delta = delta2
		served := parts[:0] // parts owns its backing; filter in place
		for _, p := range parts {
			if len(p.Nodes) >= delta2+1 {
				served = append(served, p)
			}
		}
		nb.parts = served
	}
	rep.EffectiveDelta, rep.PartsErr = nb.delta, nb.partsErr

	// Kernel: the bound descriptor described the pre-churn adjacency;
	// trust it on g2 only if it verifies there. The descriptor itself is
	// carried through a fallback, so once a growth brings the full
	// structure back it verifies again and the specialised kernel
	// re-binds — the generic→kernel promotion.
	if b.desc != nil {
		switch err := graph.VerifyCayley(g2, b.desc); {
		case err == nil:
			nb.kernel = bindFinalKernel(b.desc, nb.adj)
			if rep.Grew && b.kernel == nil && nb.kernel != nil {
				rep.KernelPromotion = fmt.Sprintf("bound descriptor verifies again on the re-grown component; final pass promoted from the generic kernel to %s", kernelName(nb.kernel))
			}
		case rep.Grew:
			rep.KernelFallbackReason = fmt.Sprintf("bound descriptor still does not verify on the re-grown component (%v); final pass stays on the generic kernel", err)
		default:
			rep.KernelFallbackReason = fmt.Sprintf("bound %s descriptor no longer verifies on the surviving component (%v); final pass falls back to the generic kernel", kernelName(b.kernel), err)
		}
	}
	rep.KernelAfter = kernelName(nb.kernel)

	// The degraded stamp clears exactly when from's structure is fully
	// back — nothing still gone means g2 is from's graph, ids and all —
	// while a removal also stamps any bound it lowered.
	nb.degraded = from.degraded || rm.RemovedNodes+rm.RemovedEdges+rm.Stranded > 0 ||
		!rep.Grew && nb.delta < b.delta
	nb.compact()
	return nb
}
