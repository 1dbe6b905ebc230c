package core

import (
	"math/rand"
	"reflect"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// tableNetwork serves a network's graph as a CSR table: the same
// topology, partitions and declared structure, over a graph built by
// graph.FromAdjacency from the descriptor-backed graph's neighbour
// lists, so every engine path that reads adjacency reads the table.
type tableNetwork struct {
	topology.CayleyStructured
	g *graph.Graph
}

func (t tableNetwork) Graph() *graph.Graph { return t.g }

func newTableNetwork(t *testing.T, spec string) tableNetwork {
	t.Helper()
	nw, err := topology.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cs := nw.(topology.CayleyStructured)
	g := nw.Graph()
	return tableNetwork{cs, graph.FromAdjacency(g.N(), func(dst []int32, u int32) []int32 {
		return append(dst, g.Neighbors(u)...)
	})}
}

// TestDescriptorChurnMatchesTableTwin drives a Q14 and an FQ12 engine
// bound by NewEngine, whose graphs are descriptor-backed, through two
// remove → rebind → batches → restore → rebind → batches cycles, beside
// a twin bound to the same network served as a CSR table. The
// descriptor-backed graph must never write its CSR — the healthy engine
// serves its generator, the removal walks and compacts from it, and a
// full restore gives back the graph itself — and every RebindReport,
// every result, Stats and per-syndrome look-up count must equal the
// twin's.
func TestDescriptorChurnMatchesTableTwin(t *testing.T) {
	for _, spec := range []string{"q:14", "fq:12"} {
		t.Run(spec, func(t *testing.T) {
			nw, err := topology.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			healthy := nw.Graph()
			eng := NewEngine(nw)
			twin := NewEngine(newTableNetwork(t, spec))
			if _, ok := eng.Adjacency().(*graph.CayleyAdjacency); !ok {
				t.Fatalf("healthy engine serves %T, want the generator", eng.Adjacency())
			}
			if eng.KernelName() != twin.KernelName() {
				t.Fatalf("kernel %s, table twin %s", eng.KernelName(), twin.KernelName())
			}
			rng := rand.New(rand.NewSource(27))
			for cycle := 0; cycle < 2; cycle++ {
				nodes := make([]int32, 16)
				for i := range nodes {
					nodes[i] = int32(rng.Intn(healthy.N()))
				}
				edges := [][2]int32{{nodes[0] ^ 1, nodes[0] ^ 3}}
				rr := eng.Graph().Remove(nodes, edges)
				trr := twin.Graph().Remove(nodes, edges)
				sameRebind(t, "removal", eng, twin, rr, trr)
				sameBatches(t, eng, twin, rng)

				sameRebind(t, "restore", eng, twin, graph.Restore(rr, nodes, edges), graph.Restore(trr, nodes, edges))
				if eng.Graph() != healthy || eng.Degraded() {
					t.Fatalf("cycle %d: full restore serves a %d-node graph (degraded %v), not the bound one", cycle, eng.Graph().N(), eng.Degraded())
				}
				if _, ok := eng.Adjacency().(*graph.CayleyAdjacency); !ok {
					t.Fatalf("cycle %d: restored engine serves %T, want the generator", cycle, eng.Adjacency())
				}
				sameBatches(t, eng, twin, rng)
			}
			if healthy.Materialized() {
				t.Fatal("the descriptor-backed graph wrote its CSR")
			}
		})
	}
}

// sameRebind rebinds both engines, each with a result cache warmed by
// one diagnosis, and requires identical reports.
func sameRebind(t *testing.T, what string, eng, twin *Engine, d, td graph.Delta) {
	t.Helper()
	var reps [2]*RebindReport
	for i, e := range []*Engine{eng, twin} {
		c := NewResultCache(8)
		F := syndrome.RandomFaults(e.Graph().N(), e.Diagnosability(), rand.New(rand.NewSource(1)))
		if _, _, err := e.DiagnoseOpts(syndrome.NewLazy(F, syndrome.Mimic{}), Options{ResultCache: c}); err != nil {
			t.Fatal(err)
		}
		dd := d
		if i == 1 {
			dd = td
		}
		rep, err := e.Rebind(dd, c)
		if err != nil {
			t.Fatalf("%s rebind: %v", what, err)
		}
		reps[i] = rep
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatalf("%s: report %v\ntable twin %v", what, reps[0], reps[1])
	}
}

// sameBatches runs one batch of δ′-fault syndromes, one per stock
// behaviour, on both engines and requires identical faults, Stats and
// look-ups, and exact answers.
func sameBatches(t *testing.T, eng, twin *Engine, rng *rand.Rand) {
	t.Helper()
	n, delta := eng.Graph().N(), eng.Diagnosability()
	var syns, tsyns []syndrome.Syndrome
	var want []*bitset.Set
	for _, beh := range syndrome.AllBehaviors(rng.Uint64()) {
		F := syndrome.RandomFaults(n, delta, rng)
		syns = append(syns, syndrome.NewLazy(F, beh))
		tsyns = append(tsyns, syndrome.NewLazy(F, beh))
		want = append(want, F)
	}
	got := eng.DiagnoseBatch(syns, BatchOptions{})
	tgot := twin.DiagnoseBatch(tsyns, BatchOptions{})
	for i := range got {
		r, tr := got[i], tgot[i]
		switch {
		case r.Err != nil || tr.Err != nil:
			t.Fatalf("syndrome %d: errors %v / table twin %v", i, r.Err, tr.Err)
		case !r.Faults.Equal(want[i]) || !tr.Faults.Equal(want[i]):
			t.Fatalf("syndrome %d: misdiagnosis", i)
		case !reflect.DeepEqual(r.Stats, tr.Stats):
			t.Fatalf("syndrome %d: Stats %+v, table twin %+v", i, r.Stats, tr.Stats)
		case syns[i].Lookups() != tsyns[i].Lookups():
			t.Fatalf("syndrome %d: %d look-ups, table twin %d", i, syns[i].Lookups(), tsyns[i].Lookups())
		}
	}
}
