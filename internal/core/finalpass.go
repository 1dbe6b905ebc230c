package core

import (
	"math"
	"math/bits"
	"slices"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// runFinalPass is the engine's serving driver for the final
// (unrestricted) Set_Builder pass over a *syndrome.Lazy. It produces
// bit-identical output — the same U, Parent, Contributors, Rounds,
// AllHealthy AND the same syndrome look-up count — as the reference
// SetBuilder, by preserving its per-node test discipline while
// removing its throughput sinks:
//
//   - devirtualisation: tests go through a concrete (*Lazy).Test call
//     instead of an interface dispatch per look-up, and the restrict
//     closure of the general builder disappears entirely;
//
//   - adaptive scan direction: each growth round costs Θ(Δ·min(|Fr|,
//     |V∖U|)) instead of Θ(Δ·|Fr|). Once U is dense (the common regime:
//     almost all nodes are healthy), walking the few remaining
//     non-members and probing their frontier neighbours is far cheaper
//     than sweeping the huge frontier past neighbours already in U;
//
//   - word-parallel rounds: with a structure kernel k bound, a large
//     sorted frontier grows by k.round, 64 candidates per handful of
//     ALU ops. A nil k is the generic pass: no word rounds.
//
// Why the look-up count is identical: in the reference loop, a
// non-member v is tested by its frontier neighbours in ascending node
// order until one answers 0 (the frontier is sorted and each admission
// is visible immediately), so v's testers form exactly the prefix of
// its ascending frontier neighbours ending at the first 0 answer (all
// of them if none answers 0). The complement walk and every kernel
// round consult literally that prefix for each v; only the
// interleaving across different v differs, which is unobservable for
// any deterministic syndrome (the Syndrome contract: repeated
// consultation of an entry yields the same answer).
func runFinalPass(sc *Scratch, a graph.Adjacencer, l *syndrome.Lazy, u0 int32, delta int, k wordRounder) *SetBuilderResult {
	sc.ensure(a.N())
	csr := graph.CSR(a)
	sc.resetTree()
	res := &sc.res
	*res = SetBuilderResult{U: sc.u, Parent: sc.parent, Contributors: sc.contributors}
	start := l.Lookups()
	// The contributor set is exactly the set of parents of admitted
	// nodes. The generic pass records it as it admits; kernel rounds do
	// not report their testers, and a resumed prefix carries only the
	// tree, so those passes rebuild it from the parents at the end
	// (contrib stays nil).
	var contrib *bitset.Set
	if k == nil && sc.prefixRes == nil {
		contrib = res.Contributors
	}

	var frontier, next []int32
	var uCount int
	if fp := sc.prefixRes; fp != nil {
		// Resume from the group's shared prefix (see finalPrefix): the
		// checkpoint was recorded at a round boundary, so the loaded
		// frontier is sorted and the loop continues exactly where the
		// representative's behaviour-independent rounds stopped. A
		// complete checkpoint stores an empty frontier, so the loop is
		// skipped and only the contributor reconstruction below runs.
		frontier = fp.loadInto(sc, res)
		next = sc.next[:0]
		uCount = fp.uCount
		res.Rounds = fp.rounds
	} else {
		res.U.Add(int(u0))
		if sc.prefixRec != nil && !sc.beginPrefix(a, l.Faults(), u0) {
			sc.prefixRec = nil // even the pair scan is hazardous: no shareable prefix
		}

		// Build U_1 exactly as the reference loop: u0 tests unordered pairs
		// of its neighbours; a 0 result certifies both participants at once.
		var adj []int32
		if csr != nil {
			adj = csr.Neighbors(u0)
		} else {
			sc.nbuf = a.AppendNeighbors(u0, sc.nbuf)
			adj = sc.nbuf
		}
		frontier = sc.frontier[:0]
		next = sc.next[:0]
		for i := 0; i < len(adj); i++ {
			for j := i + 1; j < len(adj); j++ {
				vi, vj := adj[i], adj[j]
				if res.U.Contains(int(vi)) && res.U.Contains(int(vj)) {
					continue
				}
				if l.Test(u0, vi, vj) == 0 {
					for _, v := range [2]int32{vi, vj} {
						if !res.U.Contains(int(v)) {
							res.U.Add(int(v))
							res.Parent[v] = u0
							frontier = append(frontier, v)
						}
					}
				}
			}
		}
		if len(frontier) > 0 {
			res.Rounds = 1
			if contrib != nil {
				contrib.Add(int(u0))
			}
		}
		uCount = 1 + len(frontier)
	}

	n := a.N()
	var offs, tgts []int32
	if csr != nil {
		offs, tgts = csr.Adjacency()
	}
	uw := res.U.Words()
	parent := res.Parent
	fw := sc.fsetBuf().Words()
	var pw []uint64 // round-start U snapshot, fetched by the first word round
	// Word-parallel rounds and the dense complement walk test each
	// candidate's frontier neighbours in ascending order, which equals
	// the reference's frontier-order sweep only while the frontier is
	// sorted. Round 2+ frontiers always are, and so is a resumed one
	// (recorded at a round boundary); a faulty seed's arbitrary pair
	// answers can scramble the U_1 frontier, and those rounds must take
	// the order-preserving sweep.
	sorted := slices.IsSorted(frontier)
	threshold := math.MaxInt // the generic pass never takes a word round
	if k != nil {
		threshold = k.sweepThreshold()
	}
	for len(frontier) > 0 {
		if rec := sc.prefixRec; rec != nil && sc.frontierHazardous(frontier) {
			// End of the behaviour-independent prefix: the next round
			// would consult a comparison involving a hypothesised-faulty
			// node (see finalPrefix).
			rec.snapshot(res, frontier, uCount, res.Rounds, l.Lookups()-start)
			sc.prefixRec = nil
		}
		admitted := 0
		if sorted && len(frontier) > threshold {
			if pw == nil {
				pw = sc.prevBuf()
			}
			copy(pw, uw)
			// Word-parallel round against the fixed round-start frontier.
			for _, u := range frontier {
				fw[u>>6] |= 1 << (uint(u) & 63)
			}
			admitted = k.round(fw, uw, parent, l)
			for _, u := range frontier {
				fw[u>>6] &^= 1 << (uint(u) & 63)
			}
			if admitted == 0 {
				break
			}
			// The new frontier is the U delta against the round-start
			// snapshot, read out in ascending order — the sorted frontier
			// the reference Drain produces, without per-admission set
			// maintenance.
			next = next[:0]
			for wi, w := range uw {
				for d := w &^ pw[wi]; d != 0; d &= d - 1 {
					next = append(next, int32(wi<<6+bits.TrailingZeros64(d)))
				}
			}
		} else if sorted && len(frontier) > n-uCount {
			// Dense regime: few non-members remain, so walk V∖U and probe
			// each non-member's frontier neighbours in ascending order
			// until one vouches — the same test prefix, far fewer probes.
			for _, u := range frontier {
				fw[u>>6] |= 1 << (uint(u) & 63)
			}
			next, admitted = complementRound(sc, a, offs, tgts, uw, fw, parent, l, n, next[:0], contrib)
			for _, u := range frontier {
				fw[u>>6] &^= 1 << (uint(u) & 63)
			}
			if admitted == 0 {
				break
			}
			// The complement walk visits v ascending, so next is already
			// the sorted frontier; membership is applied afterwards
			// (admitted nodes are not frontier members this round, so
			// deferral is unobservable).
			for _, v := range next {
				uw[v>>6] |= 1 << (uint(v) & 63)
			}
		} else {
			// Sparse (or unsorted) regime: the reference frontier sweep,
			// devirtualised — the only order-preserving option for a
			// scrambled U_1 frontier.
			admitted = sweepRound(sc, a, offs, tgts, frontier, uw, parent, l, contrib)
			if admitted == 0 {
				break
			}
			next = sc.added.Drain(next[:0])
			sorted = true
		}
		uCount += admitted
		frontier, next = next, frontier
		res.Rounds++
	}
	sc.frontier, sc.next = frontier, next

	if contrib == nil {
		// Reconstruct the contributor set from the tree: every admission
		// recorded its parent, and a node is a contributor exactly when
		// it admitted someone.
		for wi, w := range uw {
			for ; w != 0; w &= w - 1 {
				if p := parent[wi<<6+bits.TrailingZeros64(w)]; p >= 0 {
					res.Contributors.Add(int(p))
				}
			}
		}
	}
	// AllHealthy is monotone in the contributor count, so the final
	// count decides it — identical to the per-round checks of the
	// reference pass.
	res.AllHealthy = res.Contributors.Count() > delta
	res.Lookups = l.Lookups() - start
	if rec := sc.prefixRec; rec != nil {
		// Clean to termination (e.g. the empty hypothesis): the whole
		// result is behaviour-independent and members adopt it
		// outright (see finalPrefix).
		rec.snapshotComplete(res, uCount, res.Lookups)
		sc.prefixRec = nil
	}
	return res
}

// sweepRound is one sparse growth round: the reference frontier sweep,
// walking the CSR arrays directly (offs nil means an implicit
// adjacency: a hypercube's goes to sweepBasisRound, any other is
// generated into sc.nbuf). Admissions are visible
// immediately and collected in sc.added for the caller to drain in
// order; contributors are recorded into contrib when it is non-nil.
// It lives outside runFinalPass so the sweep's inner loop does not
// compete with the driver's locals for registers.
func sweepRound(sc *Scratch, a graph.Adjacencer, offs, tgts, frontier []int32, uw []uint64, parent []int32, l *syndrome.Lazy, contrib *bitset.Set) int {
	if basis := graph.XORBasis(a); basis != 0 {
		return sweepBasisRound(sc.added, basis, frontier, uw, parent, l, contrib)
	}
	added := sc.added
	admitted := 0
	for _, u := range frontier {
		tu := parent[u]
		contributed := false
		var nbrs []int32
		if offs != nil {
			nbrs = tgts[offs[u]:offs[u+1]]
		} else {
			sc.nbuf = a.AppendNeighbors(u, sc.nbuf)
			nbrs = sc.nbuf
		}
		for _, v := range nbrs {
			if uw[v>>6]&(1<<(uint(v)&63)) != 0 {
				continue
			}
			if l.Test(u, v, tu) == 0 {
				uw[v>>6] |= 1 << (uint(v) & 63)
				parent[v] = u
				added.Add(int(v))
				admitted++
				contributed = true
			}
		}
		if contributed && contrib != nil {
			contrib.Add(int(u))
		}
	}
	return admitted
}

// sweepBasisRound is sweepRound over a hypercube's implicit adjacency:
// the same admissions in the same order, with each neighbourhood walked
// by the inlined graph.BasisWalk. A function of its own keeps the walk's
// few live values in registers.
func sweepBasisRound(added *bitset.Set, basis uint32, frontier []int32, uw []uint64, parent []int32, l *syndrome.Lazy, contrib *bitset.Set) int {
	admitted := 0
	for _, u := range frontier {
		tu := parent[u]
		contributed := false
		for w := graph.BasisWalk(u, basis); w != 0; w &= w - 1 {
			v := graph.BasisNeighbor(u, w)
			if uw[v>>6]&(1<<(uint(v)&63)) != 0 {
				continue
			}
			if l.Test(u, v, tu) == 0 {
				uw[v>>6] |= 1 << (uint(v) & 63)
				parent[v] = u
				added.Add(int(v))
				admitted++
				contributed = true
			}
		}
		if contributed && contrib != nil {
			contrib.Add(int(u))
		}
	}
	return admitted
}

// complementRound is one dense growth round: walk the non-members of U
// in ascending order and probe each one's frontier neighbours (members
// of fw) in ascending order until one vouches. Membership is deferred:
// uw is only read, and the admissions are appended to next in
// ascending order for the caller to apply. Contributors are recorded
// into contrib when it is non-nil. A hypercube's implicit adjacency
// goes to complementBasisRound.
func complementRound(sc *Scratch, a graph.Adjacencer, offs, tgts []int32, uw, fw []uint64, parent []int32, l *syndrome.Lazy, n int, next []int32, contrib *bitset.Set) ([]int32, int) {
	if basis := graph.XORBasis(a); basis != 0 {
		return complementBasisRound(basis, uw, fw, parent, l, n, next, contrib)
	}
	admitted := 0
	for wi, w := range uw {
		inv := ^w
		if wi == len(uw)-1 {
			if tail := n & 63; tail != 0 {
				inv &= 1<<uint(tail) - 1
			}
		}
		for inv != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(inv))
			inv &= inv - 1
			var nbrs []int32
			if offs != nil {
				nbrs = tgts[offs[v]:offs[v+1]]
			} else {
				sc.nbuf = a.AppendNeighbors(v, sc.nbuf)
				nbrs = sc.nbuf
			}
			for _, u := range nbrs {
				if fw[u>>6]&(1<<(uint(u)&63)) == 0 {
					continue
				}
				if l.Test(u, v, parent[u]) != 0 {
					continue
				}
				parent[v] = u
				next = append(next, v)
				admitted++
				if contrib != nil {
					contrib.Add(int(u))
				}
				break
			}
		}
	}
	return next, admitted
}

// complementBasisRound is complementRound over a hypercube's implicit
// adjacency, walking each non-member's neighbourhood with the inlined
// graph.BasisWalk (see sweepBasisRound).
func complementBasisRound(basis uint32, uw, fw []uint64, parent []int32, l *syndrome.Lazy, n int, next []int32, contrib *bitset.Set) ([]int32, int) {
	admitted := 0
	for wi, w := range uw {
		inv := ^w
		if wi == len(uw)-1 {
			if tail := n & 63; tail != 0 {
				inv &= 1<<uint(tail) - 1
			}
		}
		for inv != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(inv))
			inv &= inv - 1
			for w := graph.BasisWalk(v, basis); w != 0; w &= w - 1 {
				u := graph.BasisNeighbor(v, w)
				if fw[u>>6]&(1<<(uint(u)&63)) == 0 {
					continue
				}
				if l.Test(u, v, parent[u]) != 0 {
					continue
				}
				parent[v] = u
				next = append(next, v)
				admitted++
				if contrib != nil {
					contrib.Add(int(u))
				}
				break
			}
		}
	}
	return next, admitted
}
