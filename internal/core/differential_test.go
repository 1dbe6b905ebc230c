package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// randomInstance is one generated differential case: an arbitrary
// connected graph (not a declared family) with a partition whose parts
// satisfy the Theorem 1 part preconditions (connected, larger than δ,
// induced minimum degree ≥ 2) — the conditions the grouped-batch
// soundness arguments rely on.
type randomInstance struct {
	g     *graph.Graph
	delta int
	parts []topology.Part
}

// genRandomInstance builds δ+1 disjoint cycle-with-chords parts, a few
// leftover nodes, and random inter-part edges forming a connected
// graph. Everything derives from rng, so a failing quick seed replays.
func genRandomInstance(rng *rand.Rand) randomInstance {
	delta := 1 + rng.Intn(3)
	nParts := delta + 1

	type edge struct{ u, v int32 }
	seen := map[edge]bool{}
	var edges []edge
	addEdge := func(u, v int32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[edge{u, v}] {
			return
		}
		seen[edge{u, v}] = true
		edges = append(edges, edge{u, v})
	}

	var parts []topology.Part
	next := int32(0)
	for p := 0; p < nParts; p++ {
		size := delta + 2 + rng.Intn(4)
		nodes := make([]int32, size)
		for i := range nodes {
			nodes[i] = next
			next++
		}
		// A cycle guarantees connectivity and induced min degree 2;
		// random chords vary the internal structure.
		for i := range nodes {
			addEdge(nodes[i], nodes[(i+1)%size])
		}
		for c := rng.Intn(3); c > 0; c-- {
			addEdge(nodes[rng.Intn(size)], nodes[rng.Intn(size)])
		}
		parts = append(parts, topology.Part{Nodes: nodes, Seed: nodes[rng.Intn(size)]})
	}
	// Leftover nodes outside every part, each wired at least twice.
	for extra := rng.Intn(4); extra > 0; extra-- {
		v := next
		next++
		addEdge(v, int32(rng.Intn(int(v))))
		addEdge(v, int32(rng.Intn(int(v))))
	}
	n := int(next)
	// Chain the parts (graph connectivity), then sprinkle cross edges.
	for p := 0; p+1 < nParts; p++ {
		a := parts[p].Nodes[rng.Intn(len(parts[p].Nodes))]
		b := parts[p+1].Nodes[rng.Intn(len(parts[p+1].Nodes))]
		addEdge(a, b)
	}
	for c := 2 + rng.Intn(2*n); c > 0; c-- {
		addEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}

	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.MustAddEdge(e.u, e.v)
	}
	return randomInstance{g: b.Build(), delta: delta, parts: parts}
}

// diffStats compares a batch result against the free-function outcome
// under the documented accounting contract: reps and ungrouped
// syndromes must match bit for bit; members of a grouped batch keep
// the shape fields and satisfy the shared-scan and shared-prefix
// look-up identities. With a result cache, a member may instead replay
// a cached outcome, which carries the Stats of whichever run populated
// it — the canonical row of a representative or another member's row.
func diffStats(r BatchResult, want *bitset.Set, wantStats *Stats, wantErr error,
	member, cached bool) error {
	if (r.Err == nil) != (wantErr == nil) {
		return fmt.Errorf("err %v, free function %v", r.Err, wantErr)
	}
	if wantErr == nil && !r.Faults.Equal(want) {
		return fmt.Errorf("fault set differs from free function")
	}
	if wantStats == nil {
		return nil
	}
	st := r.Stats
	if !member || (cached && st == *wantStats) {
		if st != *wantStats {
			return fmt.Errorf("stats %+v differ from free-function %+v", st, *wantStats)
		}
		return nil
	}
	if st.Seed != wantStats.Seed || st.Rounds != wantStats.Rounds ||
		st.HealthyCount != wantStats.HealthyCount || st.FaultCount != wantStats.FaultCount ||
		st.CertifiedPart != wantStats.CertifiedPart || st.Delta != wantStats.Delta ||
		st.PartsScanned != wantStats.PartsScanned {
		return fmt.Errorf("member shape stats %+v differ from free-function %+v", st, *wantStats)
	}
	if st.CertLookups != 0 {
		return fmt.Errorf("member CertLookups = %d with shared scans", st.CertLookups)
	}
	if st.FinalLookups+st.SharedFinalLookups != wantStats.FinalLookups {
		return fmt.Errorf("member final %d + shared %d ≠ free final %d",
			st.FinalLookups, st.SharedFinalLookups, wantStats.FinalLookups)
	}
	if st.TotalLookups != st.CertLookups+st.FinalLookups {
		return fmt.Errorf("member total %d ≠ cert %d + final %d", st.TotalLookups, st.CertLookups, st.FinalLookups)
	}
	return nil
}

// runDifferentialMatrix drives one engine through DiagnoseOpts and
// every DiagnoseBatch ShareHypotheses × cache combination over the
// given fault hypotheses, with base applied to every call (e.g. a tightened
// FaultBound), and asserts everything against freeRef, the
// paper-literal reference runner for the same instance. Each cached
// combination then runs a second batch on the same cache under fresh
// behaviours: no result-cache entry can answer it, so every groupable
// hypothesis is served from its hypothesis entry and all of its
// syndromes are members.
func runDifferentialMatrix(t *testing.T, tag string, eng *Engine, hyps []*bitset.Set, delta int,
	base Options, freeRef func(s syndrome.Syndrome) (*bitset.Set, *Stats, error)) {
	t.Helper()
	behaviors := syndrome.AllBehaviors(42)
	memoBehaviors := []syndrome.Behavior{syndrome.Random{Seed: 43}, syndrome.Random{Seed: 44}}

	makeSyns := func(bs []syndrome.Behavior, dup bool) ([]syndrome.Syndrome, []int) {
		var syns []syndrome.Syndrome
		var hypOf []int
		for h, F := range hyps {
			for _, b := range bs {
				syns = append(syns, syndrome.NewLazy(F, b))
				hypOf = append(hypOf, h)
			}
		}
		if dup {
			// One duplicated (hypothesis, behaviour) pair exercises cache
			// hits in ungrouped runs and member replay in grouped ones.
			syns = append(syns, syndrome.NewLazy(hyps[0], bs[0]))
			hypOf = append(hypOf, 0)
		}
		return syns, hypOf
	}

	// The paper-literal reference, once per distinct syndrome position.
	type refOut struct {
		faults *bitset.Set
		stats  *Stats
		err    error
	}
	reference := func(syns []syndrome.Syndrome) []refOut {
		refs := make([]refOut, len(syns))
		for i, s := range syns {
			f, st, err := freeRef(s)
			refs[i] = refOut{f, st, err}
		}
		return refs
	}
	refSyns, _ := makeSyns(behaviors, true)
	refs := reference(refSyns)
	memoSyns, _ := makeSyns(memoBehaviors, false)
	memoRefs := reference(memoSyns)

	// Engine single-syndrome serving path: bit-identical, lookups too.
	syns, _ := makeSyns(behaviors, true)
	for i, s := range syns {
		f, st, err := eng.DiagnoseOpts(s, base)
		berr := diffStats(BatchResult{Faults: f, Stats: derefStats(st), Err: err},
			refs[i].faults, refs[i].stats, refs[i].err, false, false)
		if berr != nil {
			t.Fatalf("%s: engine Diagnose syndrome %d: %v", tag, i, berr)
		}
		if s.Lookups() != refSyns[i].Lookups() {
			t.Fatalf("%s: engine Diagnose syndrome %d consulted %d, free %d", tag, i, s.Lookups(), refSyns[i].Lookups())
		}
	}

	var groupableSets []*bitset.Set
	for _, F := range hyps {
		if F.Count() <= delta && !slices.ContainsFunc(groupableSets, F.Equal) {
			groupableSets = append(groupableSets, F)
		}
	}
	for _, share := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			opt := BatchOptions{ShareHypotheses: share, Options: base}
			if cached {
				opt.Options.ResultCache = NewResultCache(64)
			}
			for pass := 0; pass < 2; pass++ {
				name := fmt.Sprintf("%s share=%v cache=%v", tag, share, cached)
				syns, hypOf := makeSyns(behaviors, true)
				want := refs
				memo := pass == 1
				if memo {
					if !cached {
						break
					}
					name += " memo"
					syns, hypOf = makeSyns(memoBehaviors, false)
					want = memoRefs
				}
				results := eng.DiagnoseBatch(syns, opt)
				// Grouping keys on fault-set equality, so two hypothesis
				// indices holding equal sets share one group.
				var seenSets []*bitset.Set
				for i, r := range results {
					F := hyps[hypOf[i]]
					member := false
					if share && F.Count() <= delta {
						member = memo || slices.ContainsFunc(seenSets, F.Equal)
						if !member {
							seenSets = append(seenSets, F)
						}
					}
					if err := diffStats(r, want[i].faults, want[i].stats, want[i].err, member, cached); err != nil {
						t.Fatalf("%s: syndrome %d: %v", name, i, err)
					}
					if !cached && !member && syns[i].Lookups() != refSyns[i].Lookups() {
						t.Fatalf("%s: syndrome %d consulted %d, free function %d",
							name, i, syns[i].Lookups(), refSyns[i].Lookups())
					}
					// A cache hit consults nothing; anything else is
					// consulted exactly as its Stats account.
					if got := syns[i].Lookups(); member && r.Err == nil && got != r.Stats.TotalLookups && !(cached && got == 0) {
						t.Fatalf("%s: member syndrome %d consulted %d, stats say %d",
							name, i, got, r.Stats.TotalLookups)
					}
				}
				if memo && share {
					if hits := opt.Options.ResultCache.Stats().HypothesisHits; hits != int64(len(groupableSets)) {
						t.Fatalf("%s: %d hypothesis hits, want one per groupable hypothesis (%d)", name, hits, len(groupableSets))
					}
				}
			}
		}
	}
}

func derefStats(st *Stats) Stats {
	if st == nil {
		return Stats{}
	}
	return *st
}

// TestDifferentialRandomGraphs is the differential property tier:
// testing/quick-driven random connected graphs — not declared
// topology families — with random partitions, fault loads (including
// beyond-δ hypotheses) and all behaviours, asserting the engine
// serving paths (Diagnose, DiagnoseBatch with and without
// ShareHypotheses, cache on and off) against the paper-literal free
// functions field by field.
func TestDifferentialRandomGraphs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(20260729))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := genRandomInstance(rng)
		if !inst.g.Connected() {
			// The generator chains all parts and wires leftovers, so
			// this would be a generator bug worth failing on.
			t.Errorf("seed %d: generated graph disconnected", seed)
			return false
		}
		var hyps []*bitset.Set
		hyps = append(hyps,
			syndrome.RandomFaults(inst.g.N(), rng.Intn(inst.delta+1), rng),
			syndrome.RandomFaults(inst.g.N(), inst.delta, rng),
			// Beyond the bound: must be diagnosed (or refused)
			// individually, never grouped.
			syndrome.RandomFaults(inst.g.N(), inst.delta+1+rng.Intn(3), rng),
		)
		eng := NewGraphEngine(inst.g, inst.delta, inst.parts)
		tag := fmt.Sprintf("seed=%d n=%d δ=%d", seed, inst.g.N(), inst.delta)
		runDifferentialMatrix(t, tag, eng, hyps, inst.delta, Options{}, func(s syndrome.Syndrome) (*bitset.Set, *Stats, error) {
			return DiagnoseGraph(inst.g, inst.delta, inst.parts, s, Options{})
		})
		return !t.Failed()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialDeclaredFamilies runs the same matrix over declared
// families (kernel-bound engines) with random fault loads and a random
// tightened fault bound, against the free functions.
func TestDifferentialDeclaredFamilies(t *testing.T) {
	nets := []topology.Network{
		topology.NewHypercube(7),
		topology.NewKAryNCube(4, 3),
	}
	rng := rand.New(rand.NewSource(7))
	for _, nw := range nets {
		g := nw.Graph()
		delta := nw.Diagnosability()
		eng := NewEngine(nw)
		for trial := 0; trial < 3; trial++ {
			bound := 0
			if rng.Intn(2) == 1 {
				bound = 1 + rng.Intn(delta)
			}
			eff := delta
			if bound > 0 && bound < delta {
				eff = bound
			}
			var hyps []*bitset.Set
			hyps = append(hyps,
				syndrome.RandomFaults(g.N(), rng.Intn(eff+1), rng),
				syndrome.RandomFaults(g.N(), eff, rng),
				syndrome.RandomFaults(g.N(), eff+1, rng),
			)
			tag := fmt.Sprintf("%s trial=%d bound=%d", nw.Name(), trial, bound)
			opts := Options{FaultBound: bound}
			runDifferentialMatrix(t, tag, eng, hyps, eff, opts, func(s syndrome.Syndrome) (*bitset.Set, *Stats, error) {
				return DiagnoseOpts(nw, s, opts)
			})
		}
	}
}
