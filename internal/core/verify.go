package core

import (
	"errors"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// ErrNoConsistentCandidate means no candidate fault set of size ≤ δ was
// consistent with the syndrome — the syndrome was produced by more than
// δ faults, or the graph is not δ-diagnosable.
var ErrNoConsistentCandidate = errors.New("core: no consistent fault hypothesis of size ≤ δ found")

// DiagnoseWithVerification solves the fault diagnosis problem without a
// partition: it seeds Set_Builder at successive nodes, forms the
// candidate fault set N(U_r), and accepts the first candidate that is
// fully consistent with the syndrome. Because the true fault set is the
// unique consistent hypothesis of size ≤ δ on a δ-diagnosable graph, an
// accepted candidate is exact — so the answer is only as sound as δ:
// where the family's δ overstates the graph's diagnosability, an
// accepted candidate can be wrong.
//
// Among any δ+1 distinct seeds at least one is healthy, but a healthy
// seed need not grow a U_r whose boundary is the fault set, so the loop
// may try up to N seeds, not just δ+1. Each verification costs a full
// syndrome sweep, so this is the expensive fallback for instances whose
// partition precondition is unsatisfiable (gap G3: (n,2)-stars, A_{n,2},
// AQ_7, Q2–Q5, …); prefer Diagnose whenever a partition exists. It runs
// on any adjacency: a CSR graph, or an implicit one generated from a
// descriptor, with no CSR built.
func DiagnoseWithVerification(a graph.Adjacencer, delta int, s syndrome.Syndrome) (*bitset.Set, error) {
	sc := getScratch(a.N())
	defer putScratch(sc)
	cand := sc.faultsBuf()
	for u0 := int32(0); int(u0) < a.N(); u0++ {
		r := SetBuilderInto(sc, a, s, u0, delta, nil)
		sc.nbuf = graph.NeighborsOfSetOnInto(a, r.U, cand, sc.nbuf)
		if cand.Count() > delta {
			continue
		}
		if syndrome.Consistent(a, s, cand) {
			return cand.Clone(), nil
		}
	}
	return nil, ErrNoConsistentCandidate
}
