// Star-graph cluster: diagnosis on permutation-based interconnects,
// including the boundary case the paper's Theorem 5 glosses over.
//
// The star graph S_7 (5040 nodes of degree 6) is the classical
// alternative to the hypercube; the (n,k)-star generalises it. This
// example diagnoses S_7 and S(7,3) with the partition algorithm, then
// shows the S(6,2) boundary case where Theorem 1's partition cannot
// exist (gap G3 in docs/algorithm.md) and the verification fallback
// takes over.
//
// Run with: go run ./examples/starcluster
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	cd "comparisondiag"
)

func diagnoseAndReport(nw cd.Network, faultCount int, seed int64) {
	g := nw.Graph()
	rng := rand.New(rand.NewSource(seed))
	faults := cd.RandomFaults(g.N(), faultCount, rng)
	s := cd.NewLazySyndrome(faults, cd.Mimic{})
	found, stats, err := cd.Diagnose(nw, s)
	if err != nil {
		log.Fatalf("%s: %v", nw.Name(), err)
	}
	fmt.Printf("%-8s N=%-5d δ=%d  injected=%d  exact=%v  parts=%d  lookups=%d/%d\n",
		nw.Name(), g.N(), nw.Diagnosability(), faults.Count(), found.Equal(faults),
		stats.PartsScanned, stats.TotalLookups, cd.SyndromeTableSize(g))
}

func main() {
	fmt.Println("-- permutation interconnects, partition diagnosis (Theorem 5) --")
	diagnoseAndReport(cd.NewStar(7), 6, 1)
	diagnoseAndReport(cd.NewStar(6), 5, 2)
	diagnoseAndReport(cd.NewNKStar(7, 3), 6, 3)
	diagnoseAndReport(cd.NewNKStar(8, 4), 7, 4)

	fmt.Println()
	fmt.Println("-- the S(6,2) boundary case (gap G3) --")
	nk := cd.NewNKStar(6, 2)
	g := nk.Graph()
	delta := nk.Diagnosability()
	fmt.Printf("S(6,2): N=%d but Theorem 1 needs more than δ(δ+1)=%d nodes in disjoint parts\n",
		g.N(), delta*(delta+1))

	rng := rand.New(rand.NewSource(5))
	faults := cd.RandomFaults(g.N(), delta, rng)
	s := cd.NewLazySyndrome(faults, cd.Mimic{})

	_, _, err := cd.Diagnose(nk, s)
	fmt.Printf("partition diagnosis: %v\n", err)
	if !errors.Is(err, cd.ErrNoPartition) {
		log.Fatal("expected the partition to be infeasible")
	}

	found, err := cd.DiagnoseWithVerification(g, delta, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verification fallback: diagnosed %v, exact=%v\n", found, found.Equal(faults))
}
