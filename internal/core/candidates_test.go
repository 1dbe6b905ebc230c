package core

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/topology"
)

// candidateNetworks are the CSR families the candidate tests bind.
func candidateNetworks() []topology.Network {
	return []topology.Network{topology.NewHypercube(10), topology.NewFoldedHypercube(10), topology.NewStar(6)}
}

// catalogNetworks are the 14 topology.Catalog examples, one per
// family, all of which have a partition for δ, and nkstar:6,2, a gap-G3
// instance (docs/algorithm.md) which has none.
func catalogNetworks(t *testing.T) []topology.Network {
	t.Helper()
	var specs []string
	for _, fam := range topology.Catalog() {
		specs = append(specs, fam.Example)
	}
	var nws []topology.Network
	for _, spec := range append(specs, "nkstar:6,2") {
		nw, err := topology.Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		nws = append(nws, nw)
	}
	return nws
}

// checkHealthyCandidates checks what a healthy network-bound engine
// stores and reports: Parts() is the network's own partition, the
// binding keeps exactly the δ+1 leading parts of the partition it
// re-derives (fullParts), seeds included, and it serves the bind-time
// bound. A network with no partition for δ must make the binding, its
// re-derivation and Parts() report the network's ErrNoPartition, and
// still serve its bind-time bound.
func checkHealthyCandidates(t *testing.T, when string, nw topology.Network, eng *Engine) {
	t.Helper()
	b := eng.bnd.Load()
	if b.degraded {
		t.Fatalf("%s %s: engine degraded", nw.Name(), when)
	}
	delta := nw.Diagnosability()
	want, wantErr := nw.Parts(delta+1, delta+1)
	full, fullErr := b.fullParts()
	got, err := eng.Parts()
	if b.delta != b.baseDelta {
		t.Fatalf("%s %s: non-degraded binding serves δ = %d, bound at %d", nw.Name(), when, b.delta, b.baseDelta)
	}
	if wantErr != nil {
		if !errors.Is(wantErr, topology.ErrNoPartition) {
			t.Fatalf("%s: network partition: %v", nw.Name(), wantErr)
		}
		for _, e := range []error{b.partsErr, fullErr, err} {
			if e != wantErr {
				t.Fatalf("%s %s: partition error %v, want the network's %v", nw.Name(), when, e, wantErr)
			}
		}
		if b.parts != nil || full != nil || got != nil {
			t.Fatalf("%s %s: parts beside a partition error", nw.Name(), when)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %s: Parts() = %d parts (err %v), want the network's %d", nw.Name(), when, len(got), err, len(want))
	}
	if fullErr != nil || len(full) < delta+1 {
		t.Fatalf("%s %s: fullParts() = %d parts (err %v), want at least %d", nw.Name(), when, len(full), fullErr, delta+1)
	}
	if !reflect.DeepEqual(b.parts, full[:delta+1]) {
		t.Fatalf("%s %s: stored %d parts, want fullParts()[:%d]", nw.Name(), when, len(b.parts), delta+1)
	}
}

// TestCSRCandidatesMatchDerivedPartition pins the stored-candidate rule
// on CSR engines of every catalogued family: before churn and after a
// full flap, the engine keeps only the δ+1 candidates of the partition
// it derives from its network, and that derived partition is the
// network's own, or the network's ErrNoPartition where it has none.
func TestCSRCandidatesMatchDerivedPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, nw := range catalogNetworks(t) {
		eng := NewEngine(nw)
		checkHealthyCandidates(t, "at bind", nw, eng)
		nodes, edges := churnDelta(eng.Graph(), rng)
		rr := eng.Graph().Remove(nodes, edges)
		if _, err := eng.Rebind(rr); err != nil {
			t.Fatalf("%s: removal: %v", nw.Name(), err)
		}
		if _, err := eng.Rebind(graph.Restore(rr, nodes, edges)); err != nil {
			t.Fatalf("%s: restore: %v", nw.Name(), err)
		}
		checkHealthyCandidates(t, "after a flap", nw, eng)
	}
}

// TestBindPartitionSource pins where a network engine's partition comes
// from. fq:7 and aq:9 reach δ+1 only by padding, which their coset
// structure refuses, so their engines bind the family's padded
// candidates. A network that declares no descriptor binds its own Parts
// at every bound, even when DetectXORCayley recognises its graph and
// binds the kernel from it.
func TestBindPartitionSource(t *testing.T) {
	for _, spec := range []string{"fq:7", "aq:9"} {
		nw, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		delta := nw.Diagnosability()
		desc := nw.(topology.CayleyStructured).CayleyStructure()
		if _, err := topology.CayleyCandidates(desc, delta+1, delta+1); !errors.Is(err, topology.ErrNoPartition) {
			t.Fatalf("%s: the descriptor partitions δ+1 = %d (err %v), want it to refuse the padded level", spec, delta+1, err)
		}
		want, err := nw.Parts(delta+1, delta+1)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(nw)
		if b := eng.bnd.Load(); b.partsErr != nil || !reflect.DeepEqual(b.parts, want[:delta+1]) {
			t.Fatalf("%s: engine binds %d parts (err %v), want the family's %d padded candidates", spec, len(b.parts), b.partsErr, delta+1)
		}
		if got, err := eng.Parts(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Parts() = %d parts (err %v), want the family's padded partition", spec, len(got), err)
		}
	}

	nw := reversedParts{topology.NewHypercube(8)}
	if _, ok := graph.DetectXORCayley(nw.Graph()); !ok {
		t.Fatal("Q8 is not detected as XOR-Cayley")
	}
	eng := NewEngine(nw)
	if eng.KernelName() != "xor-cayley" {
		t.Fatalf("kernel %s, want the detected xor-cayley", eng.KernelName())
	}
	b := eng.bnd.Load()
	for bound := 1; bound <= b.delta; bound++ {
		want, err := nw.Parts(bound+1, bound+1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.partsFor(b, bound)
		if err != nil || !reflect.DeepEqual(got, want[:bound+1]) {
			t.Fatalf("bound %d: engine serves %d parts (err %v), want the network's %d candidates", bound, len(got), err, bound+1)
		}
		if bound == b.delta {
			if full, err := eng.Parts(); err != nil || !reflect.DeepEqual(full, want) {
				t.Fatalf("Parts() = %d parts (err %v), want the network's own %d", len(full), err, len(want))
			}
		}
	}
}

// reversedParts hides its network's Cayley declaration and lists the
// network's parts last first, a partition no coset derivation gives.
type reversedParts struct{ topology.Network }

func (r reversedParts) Parts(minSize, minCount int) ([]topology.Part, error) {
	p, err := r.Network.Parts(minSize, minCount)
	slices.Reverse(p)
	return p, err
}

// churnDelta draws three nodes to remove and one edge between two
// nodes that stay.
func churnDelta(g *graph.Graph, rng *rand.Rand) ([]int32, [][2]int32) {
	nodes := distinctNodes(g.N(), 4, rng)
	gone := map[int32]bool{nodes[0]: true, nodes[1]: true, nodes[2]: true}
	for _, w := range g.Neighbors(nodes[3]) {
		if !gone[w] {
			return nodes[:3], [][2]int32{{nodes[3], w}}
		}
	}
	return nodes[:3], nil
}

// TestRebindCensusMatchesFullPartition replays a seeded sequence of
// stacked removals and partial and full restores, and checks every
// RebindReport census, and every served partition, against
// topology.SurviveParts and topology.RegrowParts run directly on whole
// partitions — what each rebind would see had the engine stored them.
func TestRebindCensusMatchesFullPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(2010))
	for _, nw := range candidateNetworks() {
		delta := nw.Diagnosability()
		full, err := nw.Parts(delta+1, delta+1)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(nw)
		// served filters a model partition to the parts a report's
		// bound admits, as the engine does.
		served := func(parts []topology.Part, rep *RebindReport) []topology.Part {
			if rep.PartsErr != nil {
				return nil
			}
			var out []topology.Part
			for _, p := range parts {
				if len(p.Nodes) >= rep.EffectiveDelta+1 {
					out = append(out, p)
				}
			}
			return out
		}
		check := func(step string, rep *RebindReport, model []topology.Part, kept, repaired, readmitted, dropped int) {
			t.Helper()
			got := [4]int{rep.PartsKept, rep.PartsRepaired, rep.PartsReadmitted, rep.PartsDropped}
			if want := [4]int{kept, repaired, readmitted, dropped}; got != want {
				t.Fatalf("%s %s: census kept/repaired/readmitted/dropped = %v, want %v", nw.Name(), step, got, want)
			}
			parts, _ := eng.Parts()
			if !reflect.DeepEqual(parts, model) {
				t.Fatalf("%s %s: engine serves %d parts, the full-partition model %d", nw.Name(), step, len(parts), len(model))
			}
		}

		// Two stacked removals.
		nodes1, edges1 := churnDelta(eng.Graph(), rng)
		rr1 := eng.Graph().Remove(nodes1, edges1)
		rep, err := eng.Rebind(rr1)
		if err != nil {
			t.Fatal(err)
		}
		p1, _, k, r, d := topology.SurviveParts(rr1.G, full, rr1.OldToNew, rr1.GoneEdges, nil)
		s1 := served(p1, rep)
		check("removal 1", rep, s1, k, r, 0, d)

		nodes2, edges2 := churnDelta(eng.Graph(), rng)
		rr2 := eng.Graph().Remove(nodes2, edges2)
		if rep, err = eng.Rebind(rr2); err != nil {
			t.Fatal(err)
		}
		p2, _, k, r, d := topology.SurviveParts(rr2.G, s1, rr2.OldToNew, rr2.GoneEdges, nil)
		s2 := served(p2, rep)
		check("removal 2", rep, s2, k, r, 0, d)

		// Unwind the second removal fully, then the first in two steps.
		gr := graph.Restore(rr2, nodes2, edges2)
		if rep, err = eng.Rebind(gr); err != nil {
			t.Fatal(err)
		}
		p3, _, k, r, ra, d := topology.RegrowParts(gr.G, s1, gr.OldToNew, gr.Remaining.GoneEdges, s2, gr.SurvivorToNew, nil)
		s3 := served(p3, rep)
		check("restore 2", rep, s3, k, r, ra, d)

		gr = graph.Restore(rr1, nodes1[:1], nil)
		if rep, err = eng.Rebind(gr); err != nil {
			t.Fatal(err)
		}
		p4, _, k, r, ra, d := topology.RegrowParts(gr.G, full, gr.OldToNew, gr.Remaining.GoneEdges, s3, gr.SurvivorToNew, nil)
		s4 := served(p4, rep)
		check("partial restore 1", rep, s4, k, r, ra, d)

		gr = graph.Restore(gr.Remaining, nodes1[1:], edges1)
		if rep, err = eng.Rebind(gr); err != nil {
			t.Fatal(err)
		}
		p5, _, k, r, ra, d := topology.RegrowParts(gr.G, full, gr.OldToNew, gr.Remaining.GoneEdges, s4, gr.SurvivorToNew, nil)
		check("full restore 1", rep, served(p5, rep), k, r, ra, d)
		checkHealthyCandidates(t, "after unwinding", nw, eng)
	}
}
