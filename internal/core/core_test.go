package core

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

var (
	q7  = topology.NewHypercube(7)
	q6  = topology.NewHypercube(6)
	st6 = topology.NewStar(6)
)

func behaviors() []syndrome.Behavior { return syndrome.AllBehaviors(0xC0FFEE) }

func TestSetBuilderHealthySeedGrowsHealthyComponent(t *testing.T) {
	g := q7.Graph()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(8), rng)
		for _, b := range behaviors() {
			s := syndrome.NewLazy(F, b)
			// Choose a healthy seed.
			seed := int32(-1)
			for u := 0; u < g.N(); u++ {
				if !F.Contains(u) {
					seed = int32(u)
					break
				}
			}
			r := SetBuilder(g, s, seed, q7.Diagnosability(), nil)
			if r.U.Intersects(F) {
				t.Fatalf("behaviour %s: healthy seed grew a faulty node (F=%v, U=%v)", b.Name(), F, r.U)
			}
			// U must equal the healthy component of the seed in G - F.
			healthy := bitset.New(g.N())
			for u := 0; u < g.N(); u++ {
				if !F.Contains(u) {
					healthy.Add(u)
				}
			}
			dist := g.BFSFrom(seed, healthy)
			want := bitset.New(g.N())
			for u := 0; u < g.N(); u++ {
				if dist[u] >= 0 {
					want.Add(u)
				}
			}
			// The root needs at least one healthy pair to start; with a
			// healthy component of Q7 and ≤ 7 faults this always holds
			// unless the component is a single node.
			if want.Count() > 2 && !r.U.Equal(want) {
				t.Fatalf("behaviour %s: U=%v want healthy component %v (F=%v)", b.Name(), r.U, want, F)
			}
		}
	}
}

func TestSetBuilderTreeInvariants(t *testing.T) {
	g := q7.Graph()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(8), rng)
		s := syndrome.NewLazy(F, syndrome.Random{Seed: uint64(trial)})
		seed := int32(rng.Intn(g.N()))
		r := SetBuilder(g, s, seed, q7.Diagnosability(), nil)
		if !r.U.Contains(int(seed)) {
			t.Fatal("seed not in U")
		}
		if r.Parent[seed] != -1 {
			t.Fatal("root has a parent")
		}
		r.U.ForEach(func(i int) bool {
			if int32(i) == seed {
				return true
			}
			p := r.Parent[i]
			if p < 0 || !r.U.Contains(int(p)) {
				t.Fatalf("node %d has parent %d outside U", i, p)
			}
			if !g.HasEdge(int32(i), p) {
				t.Fatalf("tree edge %d-%d not a graph edge", i, p)
			}
			if !r.Contributors.Contains(int(p)) {
				t.Fatalf("parent %d of %d not recorded as contributor", p, i)
			}
			return true
		})
		// Contributors are internal tree nodes; all must be in U.
		if !r.Contributors.IsSubsetOf(r.U) {
			t.Fatal("contributor outside U")
		}
	}
}

func TestSetBuilderRoundsBoundWhenNotAllHealthy(t *testing.T) {
	// The paper: if Set_Builder terminates with all_healthy false then
	// r ≤ δ+1, because contributor sets per level are disjoint and
	// non-empty.
	g := q7.Graph()
	delta := q7.Diagnosability()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		F := syndrome.RandomFaults(g.N(), delta, rng)
		s := syndrome.NewLazy(F, syndrome.AllOne{})
		r := SetBuilder(g, s, int32(rng.Intn(g.N())), delta, nil)
		if !r.AllHealthy && r.Rounds > delta+1 {
			t.Fatalf("rounds %d > δ+1 = %d without AllHealthy", r.Rounds, delta+1)
		}
	}
}

func TestSetBuilderAllHealthySoundness(t *testing.T) {
	// Whenever the contributor certificate fires, U must be disjoint
	// from the true fault set — under every behaviour.
	g := q7.Graph()
	delta := q7.Diagnosability()
	rng := rand.New(rand.NewSource(17))
	fired := 0
	for trial := 0; trial < 100; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(delta+1), rng)
		for _, b := range behaviors() {
			s := syndrome.NewLazy(F, b)
			r := SetBuilder(g, s, int32(rng.Intn(g.N())), delta, nil)
			if r.AllHealthy {
				fired++
				if r.U.Intersects(F) {
					t.Fatalf("behaviour %s: AllHealthy certificate lied (F=%v ∩ U≠∅)", b.Name(), F)
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("certificate never fired across 500 runs; test is vacuous")
	}
}

func TestSetBuilderRestrictedStaysInside(t *testing.T) {
	g := q7.Graph()
	mask := bitset.New(g.N())
	for i := 0; i < 16; i++ { // the subcube Q4 with high bits 000
		mask.Add(i)
	}
	s := syndrome.NewLazy(bitset.New(g.N()), nil)
	r := SetBuilder(g, s, 0, q7.Diagnosability(), mask)
	if !r.U.IsSubsetOf(mask) {
		t.Fatalf("restricted growth escaped the mask: %v", r.U)
	}
	if r.U.Count() != 16 {
		t.Fatalf("fault-free restricted growth should cover the subcube, got %d", r.U.Count())
	}
}

func TestSetBuilderLookupBound(t *testing.T) {
	// Section 6: at most (Δ-1)(Δ/2 + |U_r| - 1) look-ups.
	g := q7.Graph()
	delta := q7.Diagnosability()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(delta+1), rng)
		s := syndrome.NewLazy(F, syndrome.Random{Seed: uint64(trial)})
		r := SetBuilder(g, s, int32(rng.Intn(g.N())), delta, nil)
		d := float64(g.MaxDegree())
		bound := (d - 1) * (d/2 + float64(r.U.Count()) - 1)
		if float64(r.Lookups) > bound+0.5 {
			t.Fatalf("lookups %d exceed paper bound %.1f (|U|=%d)", r.Lookups, bound, r.U.Count())
		}
	}
}

func TestCertifyPartFaultFreeAlwaysPasses(t *testing.T) {
	g := q7.Graph()
	parts, err := q7.Parts(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Faults entirely in part 1; part 0 must certify under every
	// behaviour.
	F := bitset.FromMembers(g.N(), parts[1].Nodes[:3])
	for _, b := range behaviors() {
		s := syndrome.NewLazy(F, b)
		mask := bitset.FromMembers(g.N(), parts[0].Nodes)
		if !CertifyPart(g, s, parts[0].Nodes, mask) {
			t.Fatalf("behaviour %s: fault-free part rejected", b.Name())
		}
	}
}

func TestCertifyPartMixedAlwaysFails(t *testing.T) {
	g := q7.Graph()
	parts, _ := q7.Parts(8, 8)
	// One fault inside part 0 (not more than δ in total, part has 8 > δ? — δ=7,
	// part size 8 > 7 ✓, so soundness applies).
	F := bitset.FromMembers(g.N(), parts[0].Nodes[2:3])
	for _, b := range behaviors() {
		s := syndrome.NewLazy(F, b)
		mask := bitset.FromMembers(g.N(), parts[0].Nodes)
		if CertifyPart(g, s, parts[0].Nodes, mask) {
			t.Fatalf("behaviour %s: mixed part certified", b.Name())
		}
	}
}

func TestCertifyPartAllFaultyCaveat(t *testing.T) {
	// Documented limit: an ALL-faulty part with all-zero liars passes
	// the scan — which is why Theorem 1 requires |P| > δ. This test
	// pins the caveat so nobody "fixes" the certificate silently.
	g := q6.Graph()
	parts, _ := q6.Parts(7, 7)
	F := bitset.FromMembers(g.N(), parts[0].Nodes) // 8 faults — beyond δ=6
	s := syndrome.NewLazy(F, syndrome.AllZero{})
	mask := bitset.FromMembers(g.N(), parts[0].Nodes)
	if !CertifyPart(g, s, parts[0].Nodes, mask) {
		t.Fatal("all-faulty all-zero part should (vacuously) pass the scan")
	}
}

// diagnosisInstances returns moderate instances of every family for
// end-to-end diagnosis tests.
func diagnosisInstances() []topology.Network {
	return []topology.Network{
		q7,
		topology.NewCrossedCube(7),
		topology.NewTwistedCube(7),
		topology.NewFoldedHypercube(7),
		topology.NewEnhancedHypercube(7, 3),
		topology.NewAugmentedCube(8),
		topology.NewShuffleCube(6),
		topology.NewTwistedNCube(7),
		topology.NewKAryNCube(3, 4),
		topology.NewKAryNCube(4, 3),
		topology.NewAugmentedKAryNCube(7, 2),
		st6,
		topology.NewNKStar(6, 3),
		topology.NewPancake(6),
		topology.NewArrangement(6, 4),
		topology.NewArrangement(7, 3),
	}
}

func TestDiagnoseExactAcrossFamiliesAndBehaviours(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, nw := range diagnosisInstances() {
		nw := nw
		t.Run(nw.Name(), func(t *testing.T) {
			g := nw.Graph()
			delta := nw.Diagnosability()
			for trial := 0; trial < 6; trial++ {
				size := rng.Intn(delta + 1)
				F := syndrome.RandomFaults(g.N(), size, rng)
				for _, b := range behaviors() {
					s := syndrome.NewLazy(F, b)
					got, stats, err := Diagnose(nw, s)
					if err != nil {
						t.Fatalf("behaviour %s |F|=%d: %v", b.Name(), size, err)
					}
					if !got.Equal(F) {
						t.Fatalf("behaviour %s: diagnosed %v, want %v", b.Name(), got, F)
					}
					if stats.FaultCount != size {
						t.Fatalf("stats fault count %d, want %d", stats.FaultCount, size)
					}
				}
			}
		})
	}
}

func TestDiagnoseMaximumFaultLoad(t *testing.T) {
	// Exactly δ faults, including the extremal neighbourhood
	// configuration, under the nastiest adversary (mimic).
	for _, nw := range diagnosisInstances() {
		nw := nw
		t.Run(nw.Name(), func(t *testing.T) {
			g := nw.Graph()
			delta := nw.Diagnosability()
			rng := rand.New(rand.NewSource(5))
			cases := []*bitset.Set{
				syndrome.RandomFaults(g.N(), delta, rng),
				syndrome.NeighborhoodFaults(g, int32(g.N()/2), delta),
				syndrome.ClusterFaults(g, 0, delta),
			}
			for ci, F := range cases {
				s := syndrome.NewLazy(F, syndrome.Mimic{})
				got, _, err := Diagnose(nw, s)
				if err != nil {
					t.Fatalf("case %d: %v", ci, err)
				}
				if !got.Equal(F) {
					t.Fatalf("case %d: diagnosed %v, want %v", ci, got, F)
				}
			}
		})
	}
}

func TestDiagnoseNoFaults(t *testing.T) {
	for _, nw := range []topology.Network{q7, st6} {
		s := syndrome.NewLazy(bitset.New(nw.Graph().N()), nil)
		got, stats, err := Diagnose(nw, s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != 0 {
			t.Fatalf("phantom faults: %v", got)
		}
		if stats.HealthyCount != nw.Graph().N() {
			t.Fatalf("healthy set %d of %d", stats.HealthyCount, nw.Graph().N())
		}
	}
}

func TestDiagnosePaperStrategyNeedsBiggerParts(t *testing.T) {
	// Gap G1: with the paper's prescribed part size (> δ), the
	// contributor certificate cannot fire on Q7 (subcube BFS trees have
	// ≤ 4 internal nodes); with parts of ≥ 2δ+2 nodes it succeeds.
	g := q7.Graph()
	delta := q7.Diagnosability()
	F := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(2)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})

	_, _, err := DiagnoseOpts(q7, s, Options{Strategy: StrategyPaper})
	if !errors.Is(err, ErrNoHealthyPart) {
		t.Fatalf("expected ErrNoHealthyPart at paper part sizes, got %v", err)
	}

	bigParts, err := q7.Parts(2*delta+2, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DiagnoseOpts(q7, s, Options{Strategy: StrategyPaper, Parts: bigParts})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(F) {
		t.Fatalf("paper strategy with big parts: %v, want %v", got, F)
	}
}

func TestDiagnoseDetectsFaultOverload(t *testing.T) {
	// One fault planted in each candidate part defeats every
	// certificate, and the library must report that rather than guess.
	parts, err := q7.Parts(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := q7.Graph()
	F := bitset.New(g.N())
	for _, p := range parts {
		F.Add(int(p.Nodes[0]))
	}
	if F.Count() <= q7.Diagnosability() {
		t.Fatal("test setup: need more than δ faults")
	}
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	_, _, err = Diagnose(q7, s)
	if !errors.Is(err, ErrNoHealthyPart) {
		t.Fatalf("expected ErrNoHealthyPart, got %v", err)
	}
}

// TestDiagnoseWithVerificationOnPartitionlessFamily runs the
// verification fallback on gap-G3 instances, which have no Theorem 1
// partition (S(6,2): N = 30 < (δ+1)² = 36), at sizes where the declared
// δ is a true diagnosability bound. Every F = N(v) with
// |N(v)| ≤ δ — the sets that isolate a healthy node — and seeded random
// sets of at most δ faults (every such set on instances of at most 8
// nodes) must be diagnosed exactly under every
// behaviour, the mimic and random adversaries included. The XOR families also run on the implicit
// adjacency of their declared descriptor, which must give the same
// answer from the same number of syndrome look-ups as the CSR.
func TestDiagnoseWithVerificationOnPartitionlessFamily(t *testing.T) {
	specs := []string{
		"nkstar:6,2", "q:4", "q:5", "cq:5", "tnq:5", "fq:5", "eq:5,3",
		"aq:5", "aq:7", "kary:9,1", "akary:3,4", "nkstar:9,2", "arr:9,2",
		// Instances whose δ is the exhaustively computed one, not the
		// family formula (TestSmallInstanceDiagnosability).
		"q:2", "q:3", "star:3", "pancake:3", "arr:7,1",
	}
	for _, spec := range specs {
		nw, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		g := nw.Graph()
		delta := nw.Diagnosability()
		if _, err := nw.Parts(delta+1, delta+1); !errors.Is(err, topology.ErrNoPartition) {
			t.Fatalf("%s: expected ErrNoPartition, got %v", spec, err)
		}
		var implicit graph.Adjacencer
		if cs, ok := nw.(topology.CayleyStructured); ok {
			if desc, ok := cs.CayleyStructure().(graph.XORCayley); ok {
				if implicit, err = graph.NewCayleyAdjacency(desc); err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
			}
		}
		var faultSets []*bitset.Set
		for v := int32(0); int(v) < g.N(); v++ {
			if g.Degree(v) > delta {
				continue
			}
			F := bitset.New(g.N())
			for _, u := range g.Neighbors(v) {
				F.Add(int(u))
			}
			faultSets = append(faultSets, F)
		}
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 10; trial++ {
			faultSets = append(faultSets, syndrome.RandomFaults(g.N(), rng.Intn(delta+1), rng))
		}
		if g.N() <= 8 {
			// Small enough to try every fault set within the bound.
			for m := uint(0); m < 1<<uint(g.N()); m++ {
				if bits.OnesCount(m) > delta {
					continue
				}
				F := bitset.New(g.N())
				for v := 0; v < g.N(); v++ {
					if m&(1<<uint(v)) != 0 {
						F.Add(v)
					}
				}
				faultSets = append(faultSets, F)
			}
		}
		for _, F := range faultSets {
			for _, b := range behaviors() {
				s := syndrome.NewLazy(F, b)
				got, err := DiagnoseWithVerification(g, delta, s)
				if err != nil || !got.Equal(F) {
					t.Fatalf("%s, behaviour %s: got %v, %v; want %v", spec, b.Name(), got, err, F)
				}
				if implicit == nil {
					continue
				}
				si := syndrome.NewLazy(F, b)
				goti, erri := DiagnoseWithVerification(implicit, delta, si)
				if erri != nil || !goti.Equal(got) || si.Lookups() != s.Lookups() {
					t.Fatalf("%s, behaviour %s: implicit run gave %v, %v in %d look-ups; CSR run %v in %d",
						spec, b.Name(), goti, erri, si.Lookups(), got, s.Lookups())
				}
			}
		}
	}
}

func TestDiagnoseGraphOnCustomGraphAndPartition(t *testing.T) {
	// The machinery is not tied to the built-in families: a 6x6 torus
	// (κ = 4 = δ) split into 6 column rings.
	k := topology.NewKAryNCube(6, 2)
	g := k.Graph()
	delta := 4
	parts, err := k.Parts(delta+1, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(delta+1), rng)
		s := syndrome.NewLazy(F, syndrome.Random{Seed: uint64(trial)})
		got, _, err := DiagnoseGraph(g, delta, parts, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(F) {
			t.Fatalf("got %v want %v", got, F)
		}
	}
}

func TestStatsLookupAccounting(t *testing.T) {
	g := q7.Graph()
	F := syndrome.RandomFaults(g.N(), 5, rand.New(rand.NewSource(1)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	_, stats, err := Diagnose(q7, s)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalLookups != s.Lookups() {
		t.Fatalf("stats lookups %d, syndrome counted %d", stats.TotalLookups, s.Lookups())
	}
	if stats.CertLookups+stats.FinalLookups != stats.TotalLookups {
		t.Fatalf("lookup breakdown inconsistent: %d + %d != %d",
			stats.CertLookups, stats.FinalLookups, stats.TotalLookups)
	}
	// The whole point of the paper's Section 6: far fewer look-ups than
	// the full syndrome table.
	if stats.TotalLookups >= syndrome.TableSize(g) {
		t.Fatalf("consulted %d entries, full table has %d", stats.TotalLookups, syndrome.TableSize(g))
	}
}
