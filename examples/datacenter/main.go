// Datacenter health sweep: periodic self-diagnosis of a 3D-torus
// cluster (an 8-ary 3-cube, 512 nodes — the interconnect shape of
// several production supercomputers).
//
// The operator story the paper's introduction motivates: machines fail
// silently, the interconnect is fine, and the cluster must find its own
// bad nodes from comparison tests without external probing. This
// example simulates a sequence of degradation events and repair cycles,
// diagnosing after each event and tracking the cost.
//
// Run with: go run ./examples/datacenter
package main

import (
	"fmt"
	"log"
	"math/rand"

	cd "comparisondiag"
)

func main() {
	nw := cd.NewKAryNCube(8, 3) // 8x8x8 torus
	g := nw.Graph()
	delta := nw.Diagnosability()
	fmt.Printf("cluster %s: %d nodes in an 8x8x8 torus, degree %d, δ = %d\n\n",
		nw.Name(), g.N(), g.MaxDegree(), delta)

	rng := rand.New(rand.NewSource(7))
	live := cd.NewFaultSet(g.N()) // currently faulty nodes

	events := []struct {
		kind  string
		count int
	}{
		{"random component wear-out", 2},
		{"random component wear-out", 1},
		{"rack-local thermal event", 3}, // clustered failures
		{"repair sweep", 0},
		{"random component wear-out", 4},
	}

	for epoch, ev := range events {
		switch ev.kind {
		case "repair sweep":
			fmt.Printf("epoch %d: repair sweep — all %d known-bad nodes replaced\n", epoch, live.Count())
			live.Clear()
		case "rack-local thermal event":
			// Failures cluster around one node, the adversarial
			// placement for partition-based diagnosis.
			center := int32(rng.Intn(g.N()))
			cluster := cd.ClusterFaults(g, center, ev.count)
			live.Union(cluster)
			fmt.Printf("epoch %d: %s near node %d (+%d faults)\n", epoch, ev.kind, center, ev.count)
		default:
			for added := 0; added < ev.count; {
				u := rng.Intn(g.N())
				if !live.Contains(u) {
					live.Add(u)
					added++
				}
			}
			fmt.Printf("epoch %d: %s (+%d faults)\n", epoch, ev.kind, ev.count)
		}

		if live.Count() > delta {
			fmt.Printf("  !! %d faults exceed δ=%d — diagnosis guarantees void, escalate to humans\n",
				live.Count(), delta)
			continue
		}
		// The sweep: faulty testers answer randomly (firmware chaos).
		s := cd.NewLazySyndrome(live, cd.RandomBehavior{Seed: uint64(epoch)})
		found, stats, err := cd.Diagnose(nw, s)
		if err != nil {
			log.Fatalf("  diagnosis failed: %v", err)
		}
		status := "EXACT"
		if !found.Equal(live) {
			status = "MISMATCH (bug!)"
		}
		fmt.Printf("  diagnosis: %v — %s; %d test results consulted (%.3f%% of table)\n",
			found, status, stats.TotalLookups,
			100*float64(stats.TotalLookups)/float64(cd.SyndromeTableSize(g)))
	}

	fmt.Println("\nfinal state:", live)
}
