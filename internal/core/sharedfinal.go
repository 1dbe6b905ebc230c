package core

import (
	"math/bits"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
)

// finalPrefix is the shared-final-prefix checkpoint of a grouped batch
// (BatchOptions.ShareHypotheses): the final Set_Builder state — U, the
// tree, the frontier and the look-up count — at the boundary of the
// behaviour-independent prefix of the pass.
//
// Why a prefix exists. A test result s_u(v, w) depends on the faulty-
// tester behaviour only when the tester u is hypothesised faulty, and
// on the hypothesis only through the membership of u, v and w in F. The
// final pass grows U from a healthy seed by consulting s_u(v, t(u))
// for frontier nodes u; as long as the frontier avoids F ∪ N(F), every
// consulted comparison has a healthy tester, a healthy tree parent and
// a healthy candidate, so every answer is 0 under every behaviour —
// the rounds are a plain BFS expansion whose admissions, tree parents
// and look-up trace are identical for all behaviours of one fault
// hypothesis. The recorder therefore runs the pass once (on the group
// representative), checks each round's start frontier against the
// hazard mask F ∪ N(F), and snapshots the state the moment the next
// round would consult a comparison involving a hypothesised-faulty
// node. Members load the snapshot and resume with their own behaviour;
// if the whole pass stayed clean (e.g. the empty hypothesis), the
// checkpoint is the complete result and members consult nothing.
//
// The conservative boundary (any involvement of a faulty node, not
// just faulty testers) keeps the argument one induction deep: while
// rounds are clean, only healthy nodes enter U, so the frontier can
// never smuggle in a faulty tester unnoticed.
//
// Lifetime: a checkpoint is written once, by the representative's
// worker during phase A of diagnoseGrouped, and is immutable from then
// on. Members read it concurrently in phase B (the phases are separated
// by a pool barrier), and with Options.ResultCache set it is stored as
// part of the hypothesis's cache entry and read by the members of later
// batches too (see hypState). The recording-only buffers — the hazard
// mask and the neighbour buffer — therefore live in the recorder's
// Scratch, not here.
//
// Encoding. U grows from empty (the caller resets the tree before the
// pass), so the checkpoint state is fully described by the non-zero U
// words and the parents of their set bits: dirtyIdx/dirtyW list the
// touched words, parents packs the tree entries of their set bits in
// ascending node order. Recording and restoring cost O(touched words +
// |U|), and a stored checkpoint holds nothing proportional to the graph.
type finalPrefix struct {
	settled  bool  // the recording pass ran; valid false then means an empty prefix
	valid    bool  // a checkpoint was recorded; members may resume
	complete bool  // the whole pass was clean; members adopt everything
	u0       int32 // seed the prefix grew from (resume sanity check)
	rounds   int   // growth rounds contained in the prefix
	lookups  int64 // syndrome consultations the prefix spent
	uCount   int   // |U| at the checkpoint

	dirtyIdx []int32  // indices of non-zero U words, ascending
	dirtyW   []uint64 // their word values
	parents  []int32  // tree parents of the set bits, packed ascending
	frontier []int32  // round-start frontier at the boundary (sorted)
}

// bytes is the size of the checkpoint's lists, charged against the
// ResultCache's hypothesis byte ceiling.
func (fp *finalPrefix) bytes() int64 {
	return int64(4*cap(fp.dirtyIdx) + 8*cap(fp.dirtyW) + 4*cap(fp.parents) + 4*cap(fp.frontier))
}

// beginPrefix arms the scratch's recorder for one final pass: it
// materialises the hazard mask F ∪ N(F) and pins the seed. It returns
// false — and the checkpoint stays invalid — when even the seed's own
// pair scan would consult a hazardous comparison (u0 faulty or adjacent
// to a fault): the shareable prefix is empty and members simply run in
// full. A hypothesis whose width differs from the bound graph (one
// drawn before a Rebind changed the node count) also gets an empty
// prefix: its ids do not all name nodes of this graph.
func (sc *Scratch) beginPrefix(a graph.Adjacencer, faults *bitset.Set, u0 int32) bool {
	sc.prefixRec.u0 = u0
	if faults.Len() != a.N() {
		return false
	}
	g := graph.CSR(a)
	words := (a.N() + 63) / 64
	if len(sc.hazard) != words {
		sc.hazard = make([]uint64, words)
	} else {
		clear(sc.hazard)
	}
	for wi, w := range faults.Words() {
		for ; w != 0; w &= w - 1 {
			f := int32(wi<<6 + bits.TrailingZeros64(w))
			sc.hazard[f>>6] |= 1 << (uint32(f) & 63)
			var nbrs []int32
			if g != nil {
				nbrs = g.Neighbors(f)
			} else {
				sc.nbuf = a.AppendNeighbors(f, sc.nbuf)
				nbrs = sc.nbuf
			}
			for _, nb := range nbrs {
				sc.hazard[nb>>6] |= 1 << (uint32(nb) & 63)
			}
		}
	}
	return sc.hazard[u0>>6]&(1<<(uint32(u0)&63)) == 0
}

// frontierHazardous reports whether any frontier node touches the
// hazard mask — i.e. whether the next round would consult a comparison
// involving a hypothesised-faulty node.
func (sc *Scratch) frontierHazardous(frontier []int32) bool {
	for _, u := range frontier {
		if sc.hazard[u>>6]&(1<<(uint32(u)&63)) != 0 {
			return true
		}
	}
	return false
}

// snapshot records the checkpoint at a round boundary: the pass's
// state before the first round that would consult a hazardous
// comparison. frontier must be the (sorted) round-start frontier.
func (fp *finalPrefix) snapshot(res *SetBuilderResult, frontier []int32, uCount, rounds int, lookups int64) {
	uw := res.U.Words()
	// Size the lists exactly before filling them: one pass counts the
	// dirty words, and uCount is the parent count, so the checkpoint is
	// two allocations sized to the boundary tree (the int32 lists share
	// one) — no append-doubling slack for a stored checkpoint to retain,
	// and nothing proportional to the graph.
	nz := 0
	for _, w := range uw {
		if w != 0 {
			nz++
		}
	}
	i32 := make([]int32, nz+uCount+len(frontier))
	fp.dirtyIdx = i32[:0:nz]
	fp.parents = i32[nz : nz : nz+uCount]
	fp.frontier = append(i32[nz+uCount:nz+uCount], frontier...)
	fp.dirtyW = make([]uint64, 0, nz)
	parent := res.Parent
	for wi, w := range uw {
		if w == 0 {
			continue
		}
		fp.dirtyIdx = append(fp.dirtyIdx, int32(wi))
		fp.dirtyW = append(fp.dirtyW, w)
		for ; w != 0; w &= w - 1 {
			fp.parents = append(fp.parents, parent[wi<<6+bits.TrailingZeros64(w)])
		}
	}
	fp.uCount, fp.rounds, fp.lookups = uCount, rounds, lookups
	fp.valid, fp.complete = true, false
}

// snapshotComplete records a pass that stayed clean to termination:
// the checkpoint is the whole result and members resume past the loop,
// consulting nothing.
func (fp *finalPrefix) snapshotComplete(res *SetBuilderResult, uCount int, lookups int64) {
	fp.snapshot(res, nil, uCount, res.Rounds, lookups)
	fp.complete = true
}

// loadInto restores the checkpoint into a member's scratch-backed
// result: U and the tree are copied and the round-start frontier is
// copied into the scratch's frontier buffer; the checkpoint itself is
// only read. The caller must already have called resetTree, so Parent
// entries outside U are -1 and writing the parents of U's bits alone
// restores the whole tree exactly. The contributor set is not
// restored: a resumed pass rebuilds it from the final parents (see
// runFinalPass).
func (fp *finalPrefix) loadInto(sc *Scratch, res *SetBuilderResult) (frontier []int32) {
	uw := res.U.Words()
	parent := res.Parent
	pi := 0
	for i, wi := range fp.dirtyIdx {
		w := fp.dirtyW[i]
		uw[wi] = w
		for ; w != 0; w &= w - 1 {
			parent[int32(wi)<<6+int32(bits.TrailingZeros64(w))] = fp.parents[pi]
			pi++
		}
	}
	return append(sc.frontier[:0], fp.frontier...)
}
