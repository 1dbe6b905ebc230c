package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// rebindSizes lists, per catalog family, the small instances FuzzRebind
// churns: most have a Theorem 1 partition, and q:5, aq:5, aq:6,
// kary:9,1, akary:3,3, nkstar:6,2 and arr:5,2 have none, so the
// carried-over partition error is churned too. All stay at or below
// 128 nodes, where exact connectivity is cheap.
var rebindSizes = map[string][]string{
	"q":       {"q:6", "q:5"},
	"cq":      {"cq:6", "cq:7"},
	"tq":      {"tq:7"},
	"fq":      {"fq:6", "fq:7"},
	"eq":      {"eq:6,3", "eq:6,2"},
	"aq":      {"aq:5", "aq:6"},
	"sq":      {"sq:6"},
	"tnq":     {"tnq:6"},
	"kary":    {"kary:5,2", "kary:4,3", "kary:9,1"},
	"akary":   {"akary:7,2", "akary:3,3"},
	"star":    {"star:5", "star:4"},
	"nkstar":  {"nkstar:5,3", "nkstar:6,2"},
	"pancake": {"pancake:5", "pancake:4"},
	"arr":     {"arr:5,3", "arr:5,2"},
}

// rebindFrame is one churn event the engine can still unwind: the
// removal (or a partial growth's residual removal) to restore from, and
// the binding it was applied to, which a full restore must give back.
type rebindFrame struct {
	rr     *graph.Removal
	anchor *binding
}

// FuzzRebind churns a small catalog instance through a seeded sequence
// of at most eight steps, one op byte each: 0 and 1 remove, 2 restores
// the latest removal still standing (all of it when bit 2 is set, a
// seeded subset otherwise) and 3 flaps. After every rebind it checks
// that:
//   - the report and the binding equal the pre-merge derivation's
//     (rebind_ref_test.go) applied to the same binding and delta;
//   - a diagnosis of at most δ′ faults is exact and equals DiagnoseGraph
//     on the survivor with the served parts — fault set, Stats and
//     look-ups — and an unservable binding refuses;
//   - δ′ ≤ κ(survivor), computed exactly;
//   - a full restore gives back the binding the removal was applied to,
//     and unwinding every removal gives a fresh bind's diagnoses.
func FuzzRebind(f *testing.F) {
	for i := range topology.Catalog() {
		f.Add(uint8(i), uint8(i%2), int64(i), []byte{0, 2, 1, 2, 2, 3})
	}
	f.Fuzz(func(t *testing.T, fam, size uint8, seed int64, ops []byte) {
		cat := topology.Catalog()
		spec := cat[int(fam)%len(cat)].Spec
		sizes, ok := rebindSizes[spec]
		if !ok {
			t.Fatalf("catalog family %q has no FuzzRebind instance", spec)
		}
		nw, err := topology.Parse(sizes[int(size)%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(nw)
		var stack []rebindFrame
		rebind := func(step string, d graph.Delta) {
			t.Helper()
			before := eng.bnd.Load()
			rep, err := eng.Rebind(d)
			if err != nil {
				t.Fatalf("%s %s: %v", nw.Name(), step, err)
			}
			checkRebindStep(t, nw.Name()+" "+step, eng, before, d, rep, rng)
		}
		if len(ops) > 8 {
			ops = ops[:8]
		}
		for i, op := range ops {
			step := fmt.Sprintf("step %d (op %d)", i, op%4)
			switch op % 4 {
			case 0, 1: // remove
				nodes, edges := fuzzChurn(eng.Graph(), rng)
				rr := eng.Graph().Remove(nodes, edges)
				if rr.G.N() == 0 {
					continue
				}
				before := eng.bnd.Load()
				rebind(step, rr)
				stack = append(stack, rebindFrame{rr, before})
			case 2: // restore the latest removal, fully or in part
				if len(stack) == 0 {
					continue
				}
				top := stack[len(stack)-1]
				var nodes []int32
				for u, nu := range top.rr.OldToNew {
					if nu < 0 && (op&4 != 0 || rng.Intn(2) == 0) {
						nodes = append(nodes, int32(u))
					}
				}
				var edges [][2]int32
				for _, e := range top.rr.GoneEdges {
					if op&4 != 0 || rng.Intn(2) == 0 {
						edges = append(edges, e)
					}
				}
				gr := graph.Restore(top.rr, nodes, edges)
				rebind(step, gr)
				if gr.StillGone > 0 || len(gr.Remaining.GoneEdges) > 0 {
					stack[len(stack)-1].rr = gr.Remaining
					continue
				}
				stack = stack[:len(stack)-1]
				checkRestored(t, nw.Name()+" "+step, eng.bnd.Load(), top.anchor)
			case 3: // flap
				nodes, edges := fuzzChurn(eng.Graph(), rng)
				rr, gr := eng.Graph().Flap(nodes, edges)
				if rr.G.N() == 0 {
					continue
				}
				before := eng.bnd.Load()
				rebind(step+" removal", rr)
				rebind(step+" restore", gr)
				checkRestored(t, nw.Name()+" "+step, eng.bnd.Load(), before)
			}
			if len(stack) == 0 {
				checkFreshDiagnoses(t, nw.Name()+" "+step, eng, NewEngine(nw), rng)
			}
		}
	})
}

// fuzzChurn draws a removal: mostly one to three nodes, sometimes a
// quarter of the graph, plus up to two edges.
func fuzzChurn(g *graph.Graph, rng *rand.Rand) ([]int32, [][2]int32) {
	k := 1 + rng.Intn(3)
	if rng.Intn(8) == 0 {
		k = 1 + g.N()/4
	}
	nodes := distinctNodes(g.N(), min(k, g.N()), rng)
	var edges [][2]int32
	for j := rng.Intn(3); j > 0; j-- {
		u := int32(rng.Intn(g.N()))
		if nb := g.Neighbors(u); len(nb) > 0 {
			edges = append(edges, [2]int32{u, nb[rng.Intn(len(nb))]})
		}
	}
	return nodes, edges
}

// errText renders an error for comparison: partition errors are built
// afresh by each derivation, so only their text is stable.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkRebindStep holds one rebind to the pre-merge reference and to
// the paper-literal free path.
func checkRebindStep(t *testing.T, where string, eng *Engine, before *binding, d graph.Delta, rep *RebindReport, rng *rand.Rand) {
	t.Helper()
	want, wantRep, _, err := refDeriveDelta(before, d)
	if err != nil {
		t.Fatalf("%s: reference derivation failed: %v", where, err)
	}
	got := eng.bnd.Load()
	r1, r2 := *rep, *wantRep
	r1.PartsErr, r2.PartsErr = nil, nil
	if r1 != r2 || errText(rep.PartsErr) != errText(wantRep.PartsErr) {
		t.Fatalf("%s: report\n%v\nreference\n%v", where, rep, wantRep)
	}
	if got.g != want.g || got.nw != want.nw || got.delta != want.delta || got.baseDelta != want.baseDelta ||
		got.connBudget != want.connBudget || got.degraded != want.degraded || got.prev != want.prev ||
		got.epoch != want.epoch || kernelName(got.kernel) != kernelName(want.kernel) ||
		!reflect.DeepEqual(got.desc, want.desc) || errText(got.partsErr) != errText(want.partsErr) ||
		!reflect.DeepEqual(got.parts, want.parts) {
		t.Fatalf("%s: binding δ′=%d budget=%d degraded=%v kernel=%s err=%v parts=%d, reference δ′=%d budget=%d degraded=%v kernel=%s err=%v parts=%d",
			where, got.delta, got.connBudget, got.degraded, kernelName(got.kernel), got.partsErr, len(got.parts),
			want.delta, want.connBudget, want.degraded, kernelName(want.kernel), want.partsErr, len(want.parts))
	}

	g2 := eng.Graph()
	if g2.N() <= 1024 {
		if k := g2.VertexConnectivity(); got.delta > k {
			t.Fatalf("%s: δ′ = %d exceeds the survivor's connectivity %d", where, got.delta, k)
		}
	}
	parts, perr := eng.Parts()
	for _, b := range []syndrome.Behavior{syndrome.Mimic{}, syndrome.Random{Seed: rng.Uint64()}} {
		F := syndrome.RandomFaults(g2.N(), rng.Intn(got.delta+1), rng)
		s1, s2 := syndrome.NewLazy(F, b), syndrome.NewLazy(F, b)
		f1, st1, err1 := eng.Diagnose(s1)
		if perr != nil {
			if err1 == nil {
				t.Fatalf("%s: unservable binding (%v) diagnosed", where, perr)
			}
			continue
		}
		f2, st2, err2 := DiagnoseGraph(g2, got.delta, parts, s2, Options{})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: δ′=%d |F|=%d: errs %v / %v", where, got.delta, F.Count(), err1, err2)
		}
		if !f1.Equal(F) || !f2.Equal(F) {
			t.Fatalf("%s: δ′=%d behaviour %s: diagnosed %v / %v, want %v", where, got.delta, b.Name(), f1, f2, F)
		}
		if zeroDegraded(*st1) != *st2 || s1.Lookups() != s2.Lookups() {
			t.Fatalf("%s: engine stats %+v (%d look-ups) != reference %+v (%d)", where, st1, s1.Lookups(), st2, s2.Lookups())
		}
	}
}

// checkRestored holds a fully restored binding to the one its removal
// was applied to.
func checkRestored(t *testing.T, where string, got, want *binding) {
	t.Helper()
	if got.g.N() != want.g.N() {
		t.Fatalf("%s: full restore has %d nodes, want %d", where, got.g.N(), want.g.N())
	}
	for u := int32(0); int(u) < got.g.N(); u++ {
		if !slices.Equal(got.g.Neighbors(u), want.g.Neighbors(u)) {
			t.Fatalf("%s: full restore changed N(%d)", where, u)
		}
	}
	gp, gerr := got.fullParts()
	wp, werr := want.fullParts()
	if got.delta != want.delta || got.connBudget != want.connBudget || got.degraded != want.degraded ||
		got.prev != want.prev || kernelName(got.kernel) != kernelName(want.kernel) ||
		errText(gerr) != errText(werr) || !reflect.DeepEqual(gp, wp) {
		t.Fatalf("%s: full restore δ′=%d budget=%d degraded=%v kernel=%s err=%v, want δ′=%d budget=%d degraded=%v kernel=%s err=%v",
			where, got.delta, got.connBudget, got.degraded, kernelName(got.kernel), gerr,
			want.delta, want.connBudget, want.degraded, kernelName(want.kernel), werr)
	}
}

// checkFreshDiagnoses holds an engine whose churn is fully unwound to a
// fresh bind: same bound and kernel, no degraded stamp, and the same
// fault sets, Stats and look-ups.
func checkFreshDiagnoses(t *testing.T, where string, eng, fresh *Engine, rng *rand.Rand) {
	t.Helper()
	if eng.Degraded() || eng.Diagnosability() != fresh.Diagnosability() || eng.KernelName() != fresh.KernelName() ||
		errText(eng.PartsErr()) != errText(fresh.PartsErr()) {
		t.Fatalf("%s: unwound engine δ=%d kernel=%s degraded=%v err=%v, fresh bind δ=%d kernel=%s err=%v",
			where, eng.Diagnosability(), eng.KernelName(), eng.Degraded(), eng.PartsErr(),
			fresh.Diagnosability(), fresh.KernelName(), fresh.PartsErr())
	}
	g := fresh.Graph()
	for _, b := range []syndrome.Behavior{syndrome.Mimic{}, syndrome.Random{Seed: rng.Uint64()}} {
		F := syndrome.RandomFaults(g.N(), rng.Intn(fresh.Diagnosability()+1), rng)
		s1, s2 := syndrome.NewLazy(F, b), syndrome.NewLazy(F, b)
		f1, st1, err1 := eng.Diagnose(s1)
		f2, st2, err2 := fresh.Diagnose(s2)
		if errText(err1) != errText(err2) || (err1 == nil && (!f1.Equal(f2) || *st1 != *st2)) || s1.Lookups() != s2.Lookups() {
			t.Fatalf("%s: unwound engine diagnosed %v %+v (%v), fresh bind %v %+v (%v)", where, f1, st1, err1, f2, st2, err2)
		}
	}
}
