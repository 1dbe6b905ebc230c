package core

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestSetBuilderSeedWithoutPairsStaysAlone: a seed whose restriction
// leaves fewer than two neighbours can certify nothing (U1 needs a
// pair), so U stays {u0}.
func TestSetBuilderSeedWithoutPairsStaysAlone(t *testing.T) {
	g := q7.Graph()
	mask := bitset.New(g.N())
	mask.Add(0)
	mask.Add(1) // exactly one neighbour of 0
	s := syndrome.NewLazy(bitset.New(g.N()), nil)
	r := SetBuilder(g, s, 0, 7, mask)
	if r.U.Count() != 1 || r.AllHealthy {
		t.Fatalf("expected lone seed: |U|=%d allHealthy=%v", r.U.Count(), r.AllHealthy)
	}
	if r.Rounds != 0 {
		t.Fatalf("rounds = %d, want 0", r.Rounds)
	}
}

// TestSetBuilderLookupFieldMatchesCounter: the result's Lookups must
// equal the syndrome counter delta.
func TestSetBuilderLookupFieldMatchesCounter(t *testing.T) {
	g := q7.Graph()
	F := syndrome.RandomFaults(g.N(), 5, rand.New(rand.NewSource(8)))
	s := syndrome.NewLazy(F, syndrome.Random{Seed: 1})
	before := s.Lookups()
	r := SetBuilder(g, s, 3, 7, nil)
	if r.Lookups != s.Lookups()-before {
		t.Fatalf("result lookups %d, counter delta %d", r.Lookups, s.Lookups()-before)
	}
}

// TestSetBuilderAllOneSyndromeStallsImmediately: if every test is 1 the
// seed certifies nobody.
func TestSetBuilderAllOneSyndromeStallsImmediately(t *testing.T) {
	g := q7.Graph()
	// Every node faulty with all-one behaviour: all tests read 1.
	F := bitset.New(g.N())
	for i := 0; i < g.N(); i++ {
		F.Add(i)
	}
	s := syndrome.NewLazy(F, syndrome.AllOne{})
	r := SetBuilder(g, s, 0, 7, nil)
	if r.U.Count() != 1 {
		t.Fatalf("|U| = %d, want 1", r.U.Count())
	}
}

// TestCertifyPartRejectsDegenerateParts: a part with an induced
// degree-1 member must be rejected regardless of the syndrome, because
// the certificate's soundness precondition fails.
func TestCertifyPartRejectsDegenerateParts(t *testing.T) {
	// A path 0-1-2 inside C8: endpoints have induced degree 1.
	b := graph.NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.MustAddEdge(int32(i), int32((i+1)%8))
	}
	g := b.Build()
	nodes := []int32{0, 1, 2}
	mask := bitset.FromMembers(8, nodes)
	s := syndrome.NewLazy(bitset.New(8), nil)
	if CertifyPart(g, s, nodes, mask) {
		t.Fatal("degenerate part certified")
	}
}

// TestDiagnoseStatsPartsScanned: with faults planted in the first k
// candidate parts, certification must walk past exactly those parts.
func TestDiagnoseStatsPartsScanned(t *testing.T) {
	parts, err := q7.Parts(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := q7.Graph()
	// One fault in parts 0..2; parts[3] clean.
	F := bitset.New(g.N())
	for i := 0; i < 3; i++ {
		F.Add(int(parts[i].Nodes[1]))
	}
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	got, stats, err := Diagnose(q7, s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(F) {
		t.Fatal("misdiagnosis")
	}
	if stats.CertifiedPart != 3 || stats.PartsScanned != 4 {
		t.Fatalf("certified part %d after %d scans, want 3 after 4",
			stats.CertifiedPart, stats.PartsScanned)
	}
}

// TestDiagnoseAnyPropagatesRealErrors: non-partition errors must not be
// swallowed by the fallback.
func TestDiagnoseAnyPropagatesRealErrors(t *testing.T) {
	// More than δ faults spread over every candidate part: certification
	// fails, and DiagnoseAny must report that rather than fall back.
	parts, err := q7.Parts(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := q7.Graph()
	F := bitset.New(g.N())
	for _, p := range parts {
		F.Add(int(p.Nodes[0]))
	}
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	_, _, err = DiagnoseAny(q7, s)
	if err == nil {
		t.Fatal("expected an error with > δ faults everywhere")
	}
}

// TestDiagnoseOnEveryBehaviourTwistedFamilies exercises the substituted
// constructions end to end (they are only as good as their diagnosis).
func TestDiagnoseOnEveryBehaviourTwistedFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, nw := range []topology.Network{
		topology.NewTwistedCube(9),
		topology.NewShuffleCube(10),
	} {
		g := nw.Graph()
		delta := nw.Diagnosability()
		for _, b := range syndrome.AllBehaviors(3) {
			F := syndrome.RandomFaults(g.N(), delta, rng)
			s := syndrome.NewLazy(F, b)
			got, _, err := Diagnose(nw, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", nw.Name(), b.Name(), err)
			}
			if !got.Equal(F) {
				t.Fatalf("%s/%s: misdiagnosis", nw.Name(), b.Name())
			}
		}
	}
}
