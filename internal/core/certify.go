package core

import (
	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// CertifyPart decides whether the part is provably fault-free by the
// scan certificate: every "path pair" test inside the part must be 0.
// For each member u with part-neighbours n_1 < n_2 < … < n_d it consults
// s_u(n_1, n_2), s_u(n_2, n_3), …, s_u(n_{d-1}, n_d) — every neighbour
// appears in some consulted pair, so d-1 look-ups per node suffice
// instead of C(d, 2).
//
// Soundness (docs/algorithm.md): if the part is connected, has more
// than δ nodes, every member has at least two part-neighbours, and all
// scans are 0, the part is fault-free. An all-faulty part would need
// more than δ faults; a mixed part has a healthy member adjacent (inside
// the part) to a faulty one, and one of its consulted pairs contains
// that faulty neighbour, forcing a 1 from a healthy tester.
//
// Completeness: a fault-free part always passes, because each tester and
// both tested nodes are healthy.
func CertifyPart(a graph.Adjacencer, s syndrome.Syndrome, nodes []int32, mask *bitset.Set) bool {
	ok, _, _ := certifyScan(a, s, nodes, mask, nil, nil)
	return ok
}

// certifyScan is CertifyPart with external buffers: ns collects the
// masked part-neighbours and nbuf holds generated neighbour lists when
// the adjacency is implicit (a CSR serves zero-copy views and never
// touches nbuf). Both (possibly grown) buffers are returned so hot
// paths can keep them in a Scratch and stay allocation-free.
func certifyScan(a graph.Adjacencer, s syndrome.Syndrome, nodes []int32, mask *bitset.Set, ns, nbuf []int32) (bool, []int32, []int32) {
	g := graph.CSR(a)
	for _, u := range nodes {
		var adj []int32
		if g != nil {
			adj = g.Neighbors(u)
		} else {
			nbuf = a.AppendNeighbors(u, nbuf)
			adj = nbuf
		}
		ns = ns[:0]
		for _, v := range adj {
			if mask.Contains(int(v)) {
				ns = append(ns, v)
			}
		}
		if len(ns) < 2 {
			// Precondition violated: the certificate cannot vouch for u.
			return false, ns, nbuf
		}
		for i := 0; i+1 < len(ns); i++ {
			if s.Test(u, ns[i], ns[i+1]) == 1 {
				return false, ns, nbuf
			}
		}
	}
	return true, ns, nbuf
}

// CertifyPartPaper runs the paper's own per-part certificate: a
// restricted Set_Builder whose contributor count must exceed δ. It
// returns the certifying Set_Builder result (AllHealthy true) or nil.
//
// This is sound but — as gap G1 in docs/algorithm.md records —
// incomplete for parts whose BFS trees have ≤ δ internal nodes even
// when the part is larger than δ; the ablation experiment A1
// quantifies how often that bites at the paper's prescribed part sizes.
func CertifyPartPaper(a graph.Adjacencer, s syndrome.Syndrome, seed int32, delta int, mask *bitset.Set) *SetBuilderResult {
	return certifyPaperInto(NewScratch(a.N()), a, s, seed, delta, mask)
}

// certifyPaperInto is CertifyPartPaper against a reusable Scratch; the
// returned result (when non-nil) is a view into the scratch.
func certifyPaperInto(sc *Scratch, a graph.Adjacencer, s syndrome.Syndrome, seed int32, delta int, mask *bitset.Set) *SetBuilderResult {
	r := SetBuilderInto(sc, a, s, seed, delta, mask)
	if r.AllHealthy {
		return r
	}
	return nil
}
