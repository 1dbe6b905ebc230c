package core

import (
	"math/bits"
	"slices"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// setBuilderLazyInto is the engine's serving kernel: SetBuilderInto
// specialised for the unrestricted final pass over a *syndrome.Lazy.
// It produces bit-identical output — the same U, Parent, Contributors,
// Rounds, AllHealthy AND the same syndrome look-up count — as the
// reference loop, by preserving its per-node test discipline while
// removing its two throughput sinks:
//
//   - devirtualisation: tests go through a concrete (*Lazy).Test call
//     instead of an interface dispatch per look-up, and the restrict
//     closure of the general builder disappears entirely;
//
//   - adaptive scan direction: each growth round costs Θ(Δ·min(|Fr|,
//     |V∖U|)) instead of Θ(Δ·|Fr|). Once U is dense (the common regime:
//     almost all nodes are healthy), iterating the few remaining
//     non-members and probing their frontier neighbours is far cheaper
//     than sweeping the huge frontier past neighbours already in U.
//
// Why the look-up count is identical: in the reference loop, a non-member
// v is tested by its frontier neighbours in ascending order — the
// frontier is sorted and each admission is visible immediately — so v's
// testers form exactly the prefix of its ascending frontier neighbours
// ending at the first 0 answer (all of them if none answers 0). The
// inverted scan consults literally that prefix for each v. Only the
// interleaving across different v differs, which is unobservable for
// any deterministic syndrome (the Syndrome contract: repeated
// consultation of an entry yields the same answer).
func setBuilderLazyInto(sc *Scratch, a graph.Adjacencer, l *syndrome.Lazy, u0 int32, delta int) *SetBuilderResult {
	sc.ensure(a.N())
	csr := graph.CSR(a)
	sc.resetTree()
	res := &sc.res
	*res = SetBuilderResult{U: sc.u, Parent: sc.parent, Contributors: sc.contributors}
	start := l.Lookups()
	var frontier, next []int32
	var uCount, contribCount int

	if fp := sc.prefixRes; fp != nil {
		// Resume from the group's shared prefix: the behaviour-
		// independent rounds were grown once by the representative (see
		// finalPrefix); this member only consults the syndrome past the
		// checkpoint, so res.Lookups comes out as the suffix count.
		frontier = fp.loadInto(sc, res)
		contribCount = fp.restoreContributors(res)
		next = sc.next[:0]
		uCount = fp.uCount
		res.Rounds = fp.rounds
		if contribCount > delta {
			res.AllHealthy = true
		}
		if fp.complete {
			sc.frontier, sc.next = frontier, next
			res.Lookups = 0
			return res
		}
	} else {
		res.U.Add(int(u0))
		uCount = 1
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
							uCount++
						}
					}
				}
			}
		}
		if len(frontier) > 0 {
			res.Contributors.Add(int(u0))
			contribCount = 1
			res.Rounds = 1
		}
		if contribCount > delta {
			res.AllHealthy = true
		}
	}

	n := a.N()
	added := sc.added
	var offs, tgts []int32
	if csr != nil {
		offs, tgts = csr.Adjacency()
	}
	uw := res.U.Words()
	parent := res.Parent
	// The dense branch tests each candidate's frontier neighbours in
	// ascending order, which equals the reference's frontier-order sweep
	// only while the frontier is sorted. Round 2+ frontiers always are
	// (Drain yields ascending); the U_1 frontier is sorted for a healthy
	// seed but a faulty seed's arbitrary pair answers can scramble it —
	// those rounds must take the order-preserving sweep. (A resumed
	// frontier was recorded at a round boundary, hence sorted.)
	sorted := slices.IsSorted(frontier)
	for len(frontier) > 0 {
		if rec := sc.prefixRec; rec != nil && sc.frontierHazardous(frontier) {
			// The next round would consult a comparison involving a
			// hypothesised-faulty node: this round boundary is the end
			// of the behaviour-independent prefix.
			rec.snapshot(res, frontier, uCount, res.Rounds, l.Lookups()-start)
			sc.prefixRec = nil
		}
		admitted := 0
		if !sorted || len(frontier) <= n-uCount {
			// Sparse regime: the reference frontier sweep, devirtualised
			// and walking the CSR arrays directly, with the contributor
			// bookkeeping hoisted out of the inner loop.
			for _, u := range frontier {
				tu := parent[u]
				contributed := false
				var nbrs []int32
				if csr != nil {
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
				if contributed && !res.Contributors.Contains(int(u)) {
					res.Contributors.Add(int(u))
					contribCount++
				}
			}
			if admitted == 0 {
				break
			}
			next = added.Drain(next[:0])
			sorted = true
		} else {
			// Dense regime: walk V∖U and probe each non-member's frontier
			// neighbours in ascending order until one vouches for it —
			// the same test prefix the frontier sweep would consult. The
			// frontier-membership gather uses the same mask trick, with
			// set bits (frontier members) walked in ascending order.
			fset := sc.fsetBuf()
			fw := fset.Words()
			for _, u := range frontier {
				fw[u>>6] |= 1 << (uint(u) & 63)
			}
			next = next[:0]
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
					if csr != nil {
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
						if !res.Contributors.Contains(int(u)) {
							res.Contributors.Add(int(u))
							contribCount++
						}
						break
					}
				}
			}
			for _, u := range frontier {
				fw[u>>6] &^= 1 << (uint(u) & 63)
			}
			if admitted == 0 {
				break
			}
			// The complement walk visits v in ascending id order, so next
			// is already the sorted frontier the reference Drain produces.
			for _, v := range next {
				uw[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		uCount += admitted
		frontier, next = next, frontier
		res.Rounds++
		if contribCount > delta {
			res.AllHealthy = true
		}
	}
	sc.frontier, sc.next = frontier, next
	res.Lookups = l.Lookups() - start
	if rec := sc.prefixRec; rec != nil {
		// The pass terminated without ever touching the hazard mask
		// (e.g. the empty hypothesis): the whole result is behaviour-
		// independent and members adopt it outright.
		rec.snapshotComplete(res, uCount, res.Lookups)
		sc.prefixRec = nil
	}
	return res
}
