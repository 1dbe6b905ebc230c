// Adversarial scenarios: what faulty testers can and cannot do to the
// diagnosis, and where the paper's own certificate needs care.
//
// The MM model lets a faulty tester answer arbitrarily. This example
// sweeps all adversary models over the extremal fault placements —
// including F = N(v), the configuration behind the diagnosability upper
// bound of Section 2 — and demonstrates gap G1: the paper's literal
// contributor certificate fails at its prescribed part size, while the
// scan certificate and enlarged parts both succeed.
//
// Run with: go run ./examples/adversarial
package main

import (
	"errors"
	"fmt"
	"log"

	cd "comparisondiag"
)

func main() {
	nw := cd.NewHypercube(9)
	g := nw.Graph()
	delta := nw.Diagnosability()
	fmt.Printf("network %s, δ = %d\n\n", nw.Name(), delta)

	center := int32(g.N() / 3)
	scenarios := []struct {
		name   string
		faults *cd.FaultSet
	}{
		{"neighbourhood F = N(v) (upper-bound extremal)", cd.NeighborhoodFaults(g, center, delta)},
		{"BFS cluster around a node", cd.ClusterFaults(g, center, delta)},
		{"no faults at all", cd.NewFaultSet(g.N())},
	}

	fmt.Println("-- every adversary, every placement: diagnosis stays exact --")
	for _, sc := range scenarios {
		for _, adversary := range cd.AllBehaviors(42) {
			s := cd.NewLazySyndrome(sc.faults, adversary)
			found, _, err := cd.Diagnose(nw, s)
			if err != nil {
				log.Fatalf("%s / %s: %v", sc.name, adversary.Name(), err)
			}
			if !found.Equal(sc.faults) {
				log.Fatalf("%s / %s: misdiagnosis", sc.name, adversary.Name())
			}
		}
		fmt.Printf("  %-46s exact under all %d adversaries\n", sc.name, len(cd.AllBehaviors(0)))
	}

	fmt.Println()
	fmt.Println("-- gap G1: the paper's contributor certificate at prescribed part size --")
	faults := cd.NeighborhoodFaults(g, center, delta)
	s := cd.NewLazySyndrome(faults, cd.Mimic{})

	_, _, err := cd.DiagnoseOpts(nw, s, cd.Options{Strategy: cd.StrategyPaper})
	if errors.Is(err, cd.ErrNoHealthyPart) {
		fmt.Println("  parts of size δ+1:  contributor certificate cannot fire (as gap G1 in docs/algorithm.md predicts)")
	} else {
		log.Fatalf("expected ErrNoHealthyPart, got %v", err)
	}

	big, err := nw.Parts(2*delta+2, delta+1)
	if err != nil {
		log.Fatal(err)
	}
	found, _, err := cd.DiagnoseOpts(nw, s, cd.Options{Strategy: cd.StrategyPaper, Parts: big})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  parts of size 2δ+2: contributor certificate succeeds, exact=%v\n", found.Equal(faults))

	found, stats, err := cd.Diagnose(nw, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  scan certificate:   exact=%v with %d look-ups (default path)\n",
		found.Equal(faults), stats.TotalLookups)
}
