package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// declaredKernel binds the final-pass kernel a network's declared
// Cayley structure resolves to, failing the test when nothing binds.
func declaredKernel(t *testing.T, nw topology.Network) wordRounder {
	t.Helper()
	cs, ok := nw.(topology.CayleyStructured)
	if !ok {
		t.Fatalf("%s: no Cayley declaration", nw.Name())
	}
	desc := cs.CayleyStructure()
	if err := graph.VerifyCayley(nw.Graph(), desc); err != nil {
		t.Fatalf("%s: declaration rejected: %v", nw.Name(), err)
	}
	k := bindFinalKernel(desc, nw.Graph())
	if k == nil {
		t.Fatalf("%s: no kernel bound for %v", nw.Name(), desc)
	}
	return k
}

// TestKernelBinding pins which families bind which kernel — the
// registry's observable contract. Multi-bit XOR families (folded,
// enhanced, augmented) now get the generalised word-parallel kernel
// instead of falling back to the generic pass, tori bind the
// additive-rotate kernel, and node-dependent, mixed-radix or undersized
// families stay generic.
func TestKernelBinding(t *testing.T) {
	cases := []struct {
		nw   topology.Network
		want string
	}{
		{topology.NewHypercube(8), "xor-cayley"},
		{topology.NewHypercube(14), "xor-cayley"},
		{topology.NewFoldedHypercube(8), "xor-cayley[multi-bit]"},
		{topology.NewEnhancedHypercube(8, 3), "xor-cayley[multi-bit]"},
		{topology.NewAugmentedCube(6), "xor-cayley[multi-bit]"},
		{topology.NewAugmentedCube(8), "xor-cayley[multi-bit]"},
		{topology.NewKAryNCube(4, 4), "additive-rotate"},
		{topology.NewKAryNCube(3, 5), "additive-rotate"},
		// Augmented k-ary cubes declare a mixed-radix descriptor, which
		// no kernel covers: they serve the generic pass.
		{topology.NewAugmentedKAryNCube(4, 3), "generic"},
		{topology.NewAugmentedKAryNCube(3, 6), "generic"},
		// Negative cases: permutation families have no uniform
		// generator set and must stay on the generic kernel.
		{topology.NewStar(5), "generic"},
		{topology.NewPancake(5), "generic"},
		// Node-dependent cube variants likewise.
		{topology.NewCrossedCube(8), "generic"},
		{topology.NewTwistedNCube(8), "generic"},
		{topology.NewShuffleCube(6), "generic"},
		// Q5 has 32 < 64 nodes: genuine structure, below the word floor.
		{topology.NewHypercube(5), "generic"},
		{topology.NewKAryNCube(3, 3), "generic"},
		{topology.NewAugmentedKAryNCube(3, 3), "generic"}, // 27 < 64 nodes
	}
	for _, c := range cases {
		if got := NewEngine(c.nw).KernelName(); got != c.want {
			t.Errorf("%s: kernel %q, want %q", c.nw.Name(), got, c.want)
		}
	}
}

// TestGraphEngineBindCayley pins the untrusted-descriptor path: a
// graph-bound engine starts generic, binds a kernel only after the
// descriptor survives verification, and rejects descriptors that do
// not match the graph.
func TestGraphEngineBindCayley(t *testing.T) {
	nw := topology.NewFoldedHypercube(8)
	delta := nw.Diagnosability()
	parts, err := nw.Parts(delta+1, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewGraphEngine(nw.Graph(), delta, parts)
	if eng.KernelName() != "generic" {
		t.Fatalf("graph-bound engine starts with %q, want generic", eng.KernelName())
	}
	// A wrong claim (plain-hypercube masks on a folded cube) must be
	// rejected and leave the engine untouched.
	if err := eng.BindCayley(topology.NewHypercube(8).CayleyStructure()); err == nil {
		t.Fatal("mismatched descriptor accepted")
	}
	if eng.KernelName() != "generic" {
		t.Fatal("rejected descriptor still bound a kernel")
	}
	if err := eng.BindCayley(nw.CayleyStructure()); err != nil {
		t.Fatal(err)
	}
	if eng.KernelName() != "xor-cayley[multi-bit]" {
		t.Fatalf("kernel %q after BindCayley", eng.KernelName())
	}
	// The kernel-bound graph engine must stay result- and
	// look-up-identical to the free functions.
	F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(5)))
	sEng := syndrome.NewLazy(F, syndrome.Mimic{})
	sRef := syndrome.NewLazy(F, syndrome.Mimic{})
	got, gotStats, err := eng.Diagnose(sEng)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := DiagnoseGraph(nw.Graph(), delta, parts, sRef, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || gotStats.TotalLookups != wantStats.TotalLookups {
		t.Fatalf("graph engine diverged: lookups %d vs %d", gotStats.TotalLookups, wantStats.TotalLookups)
	}
}

// structuredNetworks are the kernel-bound instances every equivalence
// suite below runs over: single-bit and multi-bit XOR families plus
// even- and odd-arity tori (odd arity exercises the non-word-aligned
// tail masks).
func structuredNetworks() []topology.Network {
	return []topology.Network{
		topology.NewHypercube(6),
		topology.NewHypercube(9),
		topology.NewFoldedHypercube(8),
		topology.NewEnhancedHypercube(7, 3),
		topology.NewAugmentedCube(6),
		topology.NewKAryNCube(4, 3),
		topology.NewKAryNCube(3, 4),
		topology.NewKAryNCube(4, 5),
	}
}

// genericGraph is a named instance no kernel binds, with the fault
// bound its equivalence runs use.
type genericGraph struct {
	name  string
	g     *graph.Graph
	delta int
}

// genericGraphs are the inputs of the generic pass (runFinalPass with
// a nil rounder): declared mixed-radix structures no kernel covers,
// permutation families, and a churned hypercube whose Cayley structure
// the removal destroyed.
func genericGraphs() []genericGraph {
	var out []genericGraph
	for _, nw := range []topology.Network{
		topology.NewAugmentedKAryNCube(4, 3), // 64 nodes
		topology.NewAugmentedKAryNCube(5, 3), // ragged tail
		topology.NewAugmentedKAryNCube(3, 6), // long run generators
		topology.NewAugmentedKAryNCube(4, 5), // 1024 nodes, dense rounds
		topology.NewStar(5),
		topology.NewPancake(5),
	} {
		out = append(out, genericGraph{nw.Name(), nw.Graph(), nw.Diagnosability()})
	}
	q8 := topology.NewHypercube(8)
	rm := q8.Graph().RemoveNodes([]int32{5, 77, 200})
	return append(out, genericGraph{"Q8-minus-3", rm.G, q8.Diagnosability() - 3})
}

// TestKernelsMatchReferenceWithFaultySeed pins the unsorted-frontier
// regression: a faulty seed's arbitrary pair answers can produce an
// out-of-order U_1 frontier (e.g. Inverted admits a low neighbour via
// a high faulty one, then a middle neighbour), and the reference then
// sweeps in frontier order, not ascending order. Every specialised
// kernel must reproduce that, not assume sortedness.
func TestKernelsMatchReferenceWithFaultySeed(t *testing.T) {
	// Q8/Q9-sized instances matter most: their word counts are below Δ,
	// so an out-of-order U_1 frontier can reach the word-parallel
	// rounds (verified: with the order gate removed, inverted-adversary
	// trials diverge from the reference).
	nets := append(structuredNetworks(), topology.NewHypercube(12))
	for _, nw := range nets {
		g := nw.Graph()
		delta := nw.Diagnosability()
		k := declaredKernel(t, nw)
		t.Run(nw.Name(), func(t *testing.T) {
			testKernelsFaultySeed(t, g, basisAdjacency(nw), delta, k)
		})
	}
	for _, gg := range genericGraphs() {
		t.Run(gg.name, func(t *testing.T) {
			testKernelsFaultySeed(t, gg.g, nil, gg.delta, nil)
		})
	}
}

// basisAdjacency returns a hypercube's descriptor adjacency, whose
// sweep and complement rounds walk graph.BasisWalk instead of the
// table, or nil for any other network.
func basisAdjacency(nw topology.Network) graph.Adjacencer {
	cs, ok := nw.(topology.CayleyStructured)
	if !ok {
		return nil
	}
	ca, err := graph.NewCayleyAdjacency(cs.CayleyStructure())
	if err != nil || graph.XORBasis(ca) == 0 {
		return nil
	}
	return ca
}

// testKernelsFaultySeed runs the driver with kernel k (when non-nil)
// and with the nil rounder of the generic pass, over g and, when
// non-nil, over the implicit adjacency basis of the same graph,
// comparing every run against the reference field by field.
func testKernelsFaultySeed(t *testing.T, g *graph.Graph, basis graph.Adjacencer, delta int, k wordRounder) {
	for _, b := range syndrome.AllBehaviors(3) {
		for trial := int64(0); trial < 20; trial++ {
			// Seed 0 is always faulty, plus random companions.
			F := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(trial)))
			F.Add(0)
			sRef := syndrome.NewLazy(F, b)
			ref := SetBuilder(g, sRef, 0, delta, nil)

			arms := []wordRounder{nil}
			if k != nil {
				arms = append(arms, k)
			}
			adjs := []graph.Adjacencer{g}
			if basis != nil {
				adjs = append(adjs, basis)
			}
			for ai, a := range adjs {
				for _, ak := range arms {
					name := kernelName(ak)
					if ai > 0 {
						name += " over the descriptor"
					}
					s := syndrome.NewLazy(F, b)
					r := runFinalPass(NewScratch(g.N()), a, s, 0, delta, ak)
					if !ref.U.Equal(r.U) || !slices.Equal(ref.Parent, r.Parent) {
						t.Fatalf("%s trial %d %s: tree differs from reference", b.Name(), trial, name)
					}
					if !ref.Contributors.Equal(r.Contributors) ||
						ref.Rounds != r.Rounds || ref.AllHealthy != r.AllHealthy {
						t.Fatalf("%s trial %d %s: metadata differs", b.Name(), trial, name)
					}
					if ref.Lookups != r.Lookups || s.Lookups() != sRef.Lookups() {
						t.Fatalf("%s trial %d %s: lookups %d vs reference %d", b.Name(), trial, name, r.Lookups, ref.Lookups)
					}
				}
			}
		}
	}
}

// TestStructureKernelsMatchReference compares every registry kernel
// against the reference SetBuilder field by field — including Parent,
// Contributors and the exact look-up count — across behaviours, fault
// loads (healthy-dominant, at δ, beyond δ) and seeds, on sizes that
// exercise both the word-parallel and the small-round sweep paths.
// Beside the plain kernel pass, two arms pin the contributor rebuild:
// a kernel pass whose sweep rounds precede a word round, and a generic
// member resumed from a prefix another behaviour recorded. Hypercubes
// add the kernel and generic passes over their descriptor, whose sweep
// and complement rounds walk graph.BasisWalk.
func TestStructureKernelsMatchReference(t *testing.T) {
	type refArm struct {
		name string
		run  func(s *syndrome.Lazy) (*SetBuilderResult, int64) // result, look-ups it adopted
	}
	sweptThenWord, resumed := 0, 0
	for _, nw := range structuredNetworks() {
		g := nw.Graph()
		delta := nw.Diagnosability()
		k := declaredKernel(t, nw)
		basis := basisAdjacency(nw)
		for _, b := range syndrome.AllBehaviors(7) {
			for _, f := range []int{1, delta, delta + 3} {
				F := syndrome.RandomFaults(g.N(), f, rand.New(rand.NewSource(int64(g.N()*100+f))))
				seed := int32(0)
				for F.Contains(int(seed)) {
					seed++
				}
				sRef := syndrome.NewLazy(F, b)
				ref := SetBuilder(g, sRef, seed, delta, nil)

				arms := []refArm{
					{k.Name(), func(s *syndrome.Lazy) (*SetBuilderResult, int64) {
						return runFinalPass(NewScratch(g.N()), g, s, seed, delta, k), 0
					}},
					{"kernel sweep then word", func(s *syndrome.Lazy) (*SetBuilderResult, int64) {
						pk := &probeRounder{wordRounder: k}
						r := runFinalPass(NewScratch(g.N()), g, s, seed, delta, pk)
						if pk.firstU > 1+g.MaxDegree() {
							sweptThenWord++ // more than U_1 grew before the first word round
						}
						return r, 0
					}},
					{"resumed generic", func(s *syndrome.Lazy) (*SetBuilderResult, int64) {
						fp := &finalPrefix{}
						rec := NewScratch(g.N())
						rec.prefixRec = fp
						runFinalPass(rec, g, syndrome.NewLazy(F, syndrome.AllOne{}), seed, delta, nil)
						sc := NewScratch(g.N())
						adopted := int64(0)
						if fp.valid {
							sc.prefixRes = fp
							adopted = fp.lookups
							resumed++
						}
						return runFinalPass(sc, g, s, seed, delta, nil), adopted
					}},
				}
				if basis != nil {
					for _, ak := range []wordRounder{k, nil} {
						arms = append(arms, refArm{kernelName(ak) + " over the descriptor", func(s *syndrome.Lazy) (*SetBuilderResult, int64) {
							return runFinalPass(NewScratch(g.N()), basis, s, seed, delta, ak), 0
						}})
					}
				}
				for _, arm := range arms {
					sArm := syndrome.NewLazy(F, b)
					got, adopted := arm.run(sArm)
					if !ref.U.Equal(got.U) {
						t.Fatalf("%s %s f=%d %s: U differs", nw.Name(), b.Name(), f, arm.name)
					}
					if !slices.Equal(ref.Parent, got.Parent) {
						t.Fatalf("%s %s f=%d %s: Parent differs", nw.Name(), b.Name(), f, arm.name)
					}
					if !ref.Contributors.Equal(got.Contributors) {
						t.Fatalf("%s %s f=%d %s: Contributors differ", nw.Name(), b.Name(), f, arm.name)
					}
					if ref.Rounds != got.Rounds || ref.AllHealthy != got.AllHealthy {
						t.Fatalf("%s %s f=%d %s: rounds/AllHealthy differ", nw.Name(), b.Name(), f, arm.name)
					}
					if ref.Lookups != got.Lookups+adopted || sRef.Lookups() != sArm.Lookups()+adopted {
						t.Fatalf("%s %s f=%d %s: lookups differ: %d+%d vs %d", nw.Name(), b.Name(), f, arm.name, got.Lookups, adopted, ref.Lookups)
					}
				}
			}
		}
	}
	if sweptThenWord == 0 || resumed == 0 {
		t.Fatalf("arms not exercised: %d kernel passes swept before a word round, %d generic members resumed", sweptThenWord, resumed)
	}
}

// probeRounder wraps a kernel and records |U| when its first word
// round starts.
type probeRounder struct {
	wordRounder
	firstU int
}

func (p *probeRounder) round(fw, uw []uint64, parent []int32, l *syndrome.Lazy) int {
	if p.firstU == 0 {
		for _, w := range uw {
			p.firstU += bits.OnesCount64(w)
		}
	}
	return p.wordRounder.round(fw, uw, parent, l)
}

// TestXORScheduleIsOrderExact checks the compiled schedule directly:
// for every candidate id, the subsequence of steps whose condition the
// candidate satisfies must list that candidate's testers in strictly
// ascending order, and cover every mask exactly once.
func TestXORScheduleIsOrderExact(t *testing.T) {
	maskSets := map[string][]int32{
		"Q6":     {1, 2, 4, 8, 16, 32},
		"FQ6":    {1, 2, 4, 8, 16, 32, 63},
		"EQ6_3":  {1, 2, 4, 8, 16, 32, 56},
		"AQ6":    {1, 2, 4, 8, 16, 32, 3, 7, 15, 31, 63},
		"dense3": {1, 2, 3, 4, 5, 6, 7},
	}
	for name, masks := range maskSets {
		sched := compileXORSchedule(masks)
		if sched == nil {
			t.Fatalf("%s: schedule refused", name)
		}
		n := int32(64)
		for v := int32(0); v < n; v++ {
			var testers []int32
			seen := map[int32]bool{}
			for _, st := range sched {
				if uint32(v)&st.care != st.val {
					continue
				}
				if seen[st.mask] {
					t.Fatalf("%s v=%d: mask %#x scheduled twice", name, v, st.mask)
				}
				seen[st.mask] = true
				testers = append(testers, v^st.mask)
			}
			if len(testers) != len(masks) {
				t.Fatalf("%s v=%d: %d testers scheduled, want %d", name, v, len(testers), len(masks))
			}
			if !slices.IsSorted(testers) {
				t.Fatalf("%s v=%d: testers out of order: %v", name, v, testers)
			}
		}
	}
	if compileXORSchedule([]int32{4, 4}) != nil {
		t.Fatal("duplicate mask set compiled")
	}
}
