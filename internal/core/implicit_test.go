package core

import (
	"math/rand"
	"slices"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// implicitFamilies returns the declared-Cayley instances the implicit
// engine differential tests run over, paired with the CSR engine built
// from the same family. Sizes match the topology coset tests: the
// family partition at δ+1 is a pure range partition there, so the
// descriptor-derived parts are bit-identical and every downstream
// quantity (seeds, scan order, look-ups) must follow.
func implicitFamilies() []topology.CayleyStructured {
	return []topology.CayleyStructured{
		topology.NewHypercube(8),
		topology.NewFoldedHypercube(6),
		topology.NewEnhancedHypercube(6, 3),
		topology.NewAugmentedCube(8),
		topology.NewKAryNCube(4, 4),
		topology.NewAugmentedKAryNCube(4, 4),
	}
}

// TestImplicitEngineMatchesCSR is the tentpole differential: an engine
// bound straight from the descriptor (no CSR ever materialised) must be
// observationally identical to the CSR-backed engine on the same family
// — same partition, same fault sets, same whole-struct Stats (and hence
// the same per-phase syndrome look-up counts) — across every behaviour,
// random fault loads, tightened fault bounds, and the generic-final
// ablation.
func TestImplicitEngineMatchesCSR(t *testing.T) {
	for _, nw := range implicitFamilies() {
		t.Run(nw.Name(), func(t *testing.T) {
			delta := nw.Diagnosability()
			csrEng := NewEngine(nw)
			impEng, err := NewCayleyEngine(nw.CayleyStructure(), delta)
			if err != nil {
				t.Fatal(err)
			}
			if impEng.Graph() != nil {
				t.Fatal("implicit engine materialised a graph")
			}
			if graph.CSR(impEng.Adjacency()) != nil {
				t.Fatal("implicit engine serves a CSR adjacency")
			}

			wantParts, err := csrEng.Parts()
			if err != nil {
				t.Fatal(err)
			}
			gotParts, err := impEng.Parts()
			if err != nil {
				t.Fatal(err)
			}
			if len(gotParts) != len(wantParts) {
				t.Fatalf("%d implicit parts, %d CSR parts", len(gotParts), len(wantParts))
			}
			for i := range wantParts {
				if gotParts[i].Seed != wantParts[i].Seed || !slices.Equal(gotParts[i].Nodes, wantParts[i].Nodes) {
					t.Fatalf("part %d differs between implicit and CSR engines", i)
				}
			}

			rng := rand.New(rand.NewSource(123))
			n := nw.Graph().N()
			for _, b := range syndrome.AllBehaviors(7) {
				for trial := 0; trial < 2; trial++ {
					F := syndrome.RandomFaults(n, 1+rng.Intn(delta), rng)
					for _, opt := range []Options{
						{},
						{FaultBound: 1 + F.Count()%delta},
						{GenericFinal: true},
					} {
						sImp := syndrome.NewLazy(F, b)
						sCsr := syndrome.NewLazy(F, b)
						gotF, gotSt, gotErr := impEng.DiagnoseOpts(sImp, opt)
						wantF, wantSt, wantErr := csrEng.DiagnoseOpts(sCsr, opt)
						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%s opt %+v: err %v vs %v", b.Name(), opt, gotErr, wantErr)
						}
						if wantErr != nil {
							continue
						}
						if !gotF.Equal(wantF) {
							t.Fatalf("%s opt %+v: fault sets differ", b.Name(), opt)
						}
						if *gotSt != *wantSt {
							t.Fatalf("%s opt %+v: stats %+v vs %+v", b.Name(), opt, *gotSt, *wantSt)
						}
						if sImp.Lookups() != sCsr.Lookups() {
							t.Fatalf("%s opt %+v: %d look-ups implicit, %d CSR",
								b.Name(), opt, sImp.Lookups(), sCsr.Lookups())
						}
					}
				}
			}
		})
	}
}

// TestImplicitEngineBatch pins the grouped batch paths on an implicit
// engine against the CSR engine: member-for-member identical fault
// sets and Stats under every ShareCertification × ShareFinalPrefix
// combination, with and without a result cache. This is the path the
// shared-final delta checkpoints ride.
func TestImplicitEngineBatch(t *testing.T) {
	for _, nw := range []topology.CayleyStructured{
		topology.NewHypercube(8),
		topology.NewAugmentedKAryNCube(4, 4),
	} {
		t.Run(nw.Name(), func(t *testing.T) {
			delta := nw.Diagnosability()
			csrEng := NewEngine(nw)
			impEng, err := NewCayleyEngine(nw.CayleyStructure(), delta)
			if err != nil {
				t.Fatal(err)
			}
			g := nw.Graph()
			F := syndrome.ClusterFaults(g, int32(g.N()-1), delta)
			behaviors := sharedFinalBehaviors()
			for _, tc := range []struct {
				bopt  BatchOptions
				cache bool
			}{
				{bopt: BatchOptions{}},
				{bopt: BatchOptions{ShareCertification: true}},
				{bopt: BatchOptions{ShareFinalPrefix: true}},
				{bopt: BatchOptions{ShareCertification: true, ShareFinalPrefix: true}},
				{bopt: BatchOptions{ShareFinalPrefix: true}, cache: true},
			} {
				bopt, boptCsr := tc.bopt, tc.bopt
				if tc.cache {
					// One cache per engine: sharing one instance would let
					// the second batch answer from the first engine's work.
					bopt.Options.ResultCache = NewResultCache(32)
					boptCsr.Options.ResultCache = NewResultCache(32)
				}
				var sImp, sCsr []syndrome.Syndrome
				for _, b := range behaviors {
					sImp = append(sImp, syndrome.NewLazy(F, b))
					sCsr = append(sCsr, syndrome.NewLazy(F, b))
				}
				got := impEng.DiagnoseBatch(sImp, bopt)
				want := csrEng.DiagnoseBatch(sCsr, boptCsr)
				for i := range want {
					if (got[i].Err == nil) != (want[i].Err == nil) {
						t.Fatalf("bopt %+v member %d: err %v vs %v", bopt, i, got[i].Err, want[i].Err)
					}
					if want[i].Err != nil {
						continue
					}
					if !got[i].Faults.Equal(want[i].Faults) {
						t.Fatalf("bopt %+v member %d: fault sets differ", bopt, i)
					}
					if got[i].Stats != want[i].Stats {
						t.Fatalf("bopt %+v member %d: stats %+v vs %+v", bopt, i, got[i].Stats, want[i].Stats)
					}
					if sImp[i].Lookups() != sCsr[i].Lookups() {
						t.Fatalf("bopt %+v member %d: %d look-ups implicit, %d CSR",
							bopt, i, sImp[i].Lookups(), sCsr[i].Lookups())
					}
				}
			}
		})
	}
}

// TestImplicitEngineRefusals pins the implicit engine's declared
// limitations: no rebinding (churn is defined against a materialised
// graph), no descriptor swap, and a positive fault bound required.
func TestImplicitEngineRefusals(t *testing.T) {
	desc := topology.NewHypercube(8).CayleyStructure()
	if _, err := NewCayleyEngine(desc, 0); err == nil {
		t.Fatal("zero fault bound accepted")
	}
	if _, err := NewCayleyEngine(graph.XORCayley{Bits: 4, Masks: []int32{1, 1}}, 2); err == nil {
		t.Fatal("malformed descriptor accepted")
	}
	eng, err := NewCayleyEngine(desc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BindCayley(desc); err == nil {
		t.Fatal("BindCayley succeeded on an implicit engine")
	}
	if _, err := eng.Rebind(&graph.Removal{}); err == nil {
		t.Fatal("Rebind succeeded on an implicit engine")
	}
}

// TestImplicitQ18Smoke is the CI scale leg: bind a quarter-million-node
// hypercube engine straight from its descriptor and diagnose a
// clustered fault load exactly. Memory stays descriptor-sized plus
// scratch (no 2·m CSR target array); a second warm diagnose must not
// allocate. Skipped under -short.
func TestImplicitQ18Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quarter-million-node smoke leg")
	}
	const bitsN = 18
	masks := make([]int32, bitsN)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	desc := graph.XORCayley{Bits: bitsN, Masks: masks}
	eng, err := NewCayleyEngine(desc, bitsN)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << bitsN

	// A clustered hypothesis far from part 0's seed: the centre node and
	// its first δ−1 descriptor-generated neighbours.
	ca, err := graph.NewCayleyAdjacency(desc)
	if err != nil {
		t.Fatal(err)
	}
	centre := int32(n - 1)
	F := bitset.New(n)
	F.Add(int(centre))
	var buf []int32
	buf = ca.AppendNeighbors(centre, buf)
	for _, v := range buf[:bitsN-1] {
		F.Add(int(v))
	}

	found, st, err := eng.Diagnose(syndrome.NewLazy(F, syndrome.Mimic{}))
	if err != nil {
		t.Fatal(err)
	}
	if !found.Equal(F) {
		t.Fatalf("Q18 implicit diagnose misidentified the fault set (%d found, %d injected)",
			found.Count(), F.Count())
	}
	if st.FaultCount != bitsN || st.HealthyCount != n-bitsN {
		t.Fatalf("Q18 stats: %d faults, %d healthy; want %d and %d", st.FaultCount, st.HealthyCount, bitsN, n-bitsN)
	}

	// Warm path: scratch pooled, syndrome fresh — zero allocations.
	sc := eng.AcquireScratch()
	defer eng.ReleaseScratch(sc)
	s2 := syndrome.NewLazy(F, syndrome.Mimic{})
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := eng.DiagnoseOpts(s2, Options{Scratch: sc}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm implicit diagnose allocated %.0f times per run", allocs)
	}
}

// TestImplicitQ18ParallelSmoke is the CI parallel scale leg: the same
// quarter-million-node implicit engine serving a FinalWorkers fan-out.
// The word kernels split rounds at word granularity, so the parallel
// diagnosis must match the sequential one bit for bit — fault set and
// look-up count both. Skipped under -short.
func TestImplicitQ18ParallelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quarter-million-node smoke leg")
	}
	setGOMAXPROCS(t, 4)
	const bitsN = 18
	masks := make([]int32, bitsN)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	desc := graph.XORCayley{Bits: bitsN, Masks: masks}
	eng, err := NewCayleyEngine(desc, bitsN)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << bitsN

	ca, err := graph.NewCayleyAdjacency(desc)
	if err != nil {
		t.Fatal(err)
	}
	centre := int32(n - 1)
	F := bitset.New(n)
	F.Add(int(centre))
	var buf []int32
	buf = ca.AppendNeighbors(centre, buf)
	for _, v := range buf[:bitsN-1] {
		F.Add(int(v))
	}

	seqSet, seqStats, err := eng.DiagnoseOpts(syndrome.NewLazy(F, syndrome.Mimic{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	parSet, parStats, err := eng.DiagnoseOpts(syndrome.NewLazy(F, syndrome.Mimic{}), Options{FinalWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !parSet.Equal(seqSet) || !parSet.Equal(F) {
		t.Fatal("Q18 parallel diagnose diverged from the sequential fault set")
	}
	if parStats.FinalWorkersUsed != 4 {
		t.Fatalf("Q18 parallel FinalWorkersUsed = %d, want 4", parStats.FinalWorkersUsed)
	}
	norm := *parStats
	norm.FinalWorkersUsed = seqStats.FinalWorkersUsed
	if norm != *seqStats {
		t.Fatalf("Q18 parallel Stats diverged from sequential:\nseq %+v\npar %+v", *seqStats, *parStats)
	}
}
