package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// distinctNodes draws k distinct node ids below n.
func distinctNodes(n, k int, rng *rand.Rand) []int32 {
	seen := map[int32]bool{}
	var nodes []int32
	for len(nodes) < k {
		u := int32(rng.Intn(n))
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	return nodes
}

// TestFlapRebindBitIdenticalToFreshBind is the keystone recovery
// property: after remove-then-restore, the engine is bit-identical to a
// fresh bind on the restored graph — fault sets, whole Stats (degraded
// stamp cleared), per-syndrome look-up counts, and the kernel name.
func TestFlapRebindBitIdenticalToFreshBind(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for _, nw := range []topology.Network{topology.NewHypercube(8), topology.NewKAryNCube(3, 4)} {
		fresh := NewEngine(nw)
		eng := NewEngine(nw)
		for trial := 0; trial < 4; trial++ {
			nodes := distinctNodes(eng.Graph().N(), 1+rng.Intn(6), rng)
			var edges [][2]int32
			if u := nodes[0]; len(fresh.Graph().Neighbors(u)) > 1 {
				edges = [][2]int32{{u, fresh.Graph().Neighbors(u)[1]}}
			}
			rr := eng.Graph().Remove(nodes, edges)
			if _, err := eng.Rebind(rr); err != nil {
				t.Fatalf("%s trial %d: Rebind(removal): %v", nw.Name(), trial, err)
			}
			if !eng.Degraded() {
				t.Fatalf("%s trial %d: engine not degraded after removal", nw.Name(), trial)
			}
			gr := graph.Restore(rr, nodes, edges)
			rep, err := eng.Rebind(gr)
			if err != nil {
				t.Fatalf("%s trial %d: Rebind(growth): %v", nw.Name(), trial, err)
			}
			if !rep.Grew || rep.StillGone != 0 {
				t.Fatalf("%s trial %d: unexpected growth report %+v", nw.Name(), trial, rep)
			}
			if eng.Degraded() {
				t.Fatalf("%s trial %d: degraded stamp did not clear on full restore", nw.Name(), trial)
			}
			if eng.Diagnosability() != fresh.Diagnosability() {
				t.Fatalf("%s trial %d: δ′ = %d after flap, want δ = %d", nw.Name(), trial, eng.Diagnosability(), fresh.Diagnosability())
			}
			if eng.KernelName() != fresh.KernelName() {
				t.Fatalf("%s trial %d: kernel %q after flap, want %q", nw.Name(), trial, eng.KernelName(), fresh.KernelName())
			}
			pf, _ := fresh.Parts()
			pe, perr := eng.Parts()
			if perr != nil || len(pe) != len(pf) {
				t.Fatalf("%s trial %d: parts %d (err %v), want %d", nw.Name(), trial, len(pe), perr, len(pf))
			}
			for pi := range pe {
				if pe[pi].Seed != pf[pi].Seed || len(pe[pi].Nodes) != len(pf[pi].Nodes) {
					t.Fatalf("%s trial %d: part %d differs after flap", nw.Name(), trial, pi)
				}
				for i := range pe[pi].Nodes {
					if pe[pi].Nodes[i] != pf[pi].Nodes[i] {
						t.Fatalf("%s trial %d: part %d node %d differs", nw.Name(), trial, pi, i)
					}
				}
			}
			for _, b := range []syndrome.Behavior{syndrome.Mimic{}, syndrome.Random{Seed: uint64(trial)}} {
				F := syndrome.RandomFaults(eng.Graph().N(), rng.Intn(eng.Diagnosability()+1), rng)
				s1 := syndrome.NewLazy(F, b)
				s2 := syndrome.NewLazy(F, b)
				f1, st1, err1 := eng.Diagnose(s1)
				f2, st2, err2 := fresh.Diagnose(s2)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s trial %d: errs %v / %v", nw.Name(), trial, err1, err2)
				}
				if !f1.Equal(f2) {
					t.Fatalf("%s trial %d: fault sets diverge", nw.Name(), trial)
				}
				if *st1 != *st2 {
					t.Fatalf("%s trial %d: flapped stats %+v != fresh stats %+v", nw.Name(), trial, st1, st2)
				}
				if s1.Lookups() != s2.Lookups() {
					t.Fatalf("%s trial %d: per-syndrome lookups %d != %d", nw.Name(), trial, s1.Lookups(), s2.Lookups())
				}
			}
		}
	}
}

// TestGrowthRebindPartialDifferential restores only part of a removal
// and cross-checks the still-degraded engine against the free reference
// on the regrown partition.
func TestGrowthRebindPartialDifferential(t *testing.T) {
	nw := topology.NewHypercube(8)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		eng := NewEngine(nw)
		nodes := distinctNodes(eng.Graph().N(), 2+rng.Intn(10), rng)
		rr := eng.Graph().RemoveNodes(nodes)
		if _, err := eng.Rebind(rr); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		deltaBefore := eng.Diagnosability()
		gr := graph.Restore(rr, nodes[:len(nodes)/2], nil)
		rep, err := eng.Rebind(gr)
		if err != nil {
			t.Fatalf("trial %d: growth rebind: %v", trial, err)
		}
		if !eng.Degraded() {
			t.Fatalf("trial %d: partial restore must stay degraded", trial)
		}
		if got := eng.Diagnosability(); got < deltaBefore {
			t.Fatalf("trial %d: δ′ fell from %d to %d on a node-restore growth", trial, deltaBefore, got)
		}
		if rep.EffectiveDelta != eng.Diagnosability() {
			t.Fatalf("trial %d: report δ′ %d != engine %d", trial, rep.EffectiveDelta, eng.Diagnosability())
		}
		parts, perr := eng.Parts()
		if perr != nil {
			t.Fatalf("trial %d: unservable after growth: %v", trial, perr)
		}
		delta2 := eng.Diagnosability()
		g2 := eng.Graph()
		for i := 0; i < 3; i++ {
			F := syndrome.RandomFaults(g2.N(), rng.Intn(delta2+1), rng)
			f1, st1, err1 := eng.Diagnose(syndrome.NewLazy(F, syndrome.Mimic{}))
			f2, st2, err2 := DiagnoseGraph(g2, delta2, parts, syndrome.NewLazy(F, syndrome.Mimic{}), Options{})
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d: errs %v / %v", trial, err1, err2)
			}
			if !f1.Equal(f2) || !f1.Equal(F) {
				t.Fatalf("trial %d: fault sets diverge from reference", trial)
			}
			if !st1.Degraded || st1.EffectiveDelta != delta2 {
				t.Fatalf("trial %d: missing degraded stamp after partial growth: %+v", trial, st1)
			}
			if zeroDegraded(*st1) != *st2 {
				t.Fatalf("trial %d: engine stats %+v != reference %+v", trial, st1, st2)
			}
		}
	}
}

// TestGrowthRebindDeltaAscends restores a heavy removal node by node
// and checks δ′ climbs monotonically back to δ.
func TestGrowthRebindDeltaAscends(t *testing.T) {
	nw := topology.NewHypercube(7)
	eng := NewEngine(nw)
	rng := rand.New(rand.NewSource(17))
	nodes := distinctNodes(eng.Graph().N(), 10, rng)
	rr := eng.Graph().RemoveNodes(nodes)
	if _, err := eng.Rebind(rr); err != nil {
		t.Fatal(err)
	}
	last := eng.Diagnosability()
	cur := rr
	for i := len(nodes) - 1; i >= 0; i-- {
		gr := graph.Restore(cur, nodes[i:], nil)
		if _, err := eng.Rebind(gr); err != nil {
			t.Fatalf("restoring %d nodes: %v", len(nodes)-i, err)
		}
		if got := eng.Diagnosability(); got < last {
			t.Fatalf("δ′ fell from %d to %d while restoring", last, got)
		} else {
			last = got
		}
		cur = gr.Remaining
	}
	if last != nw.Diagnosability() || eng.Degraded() {
		t.Fatalf("after full re-growth δ′ = %d (degraded=%v), want δ = %d", last, eng.Degraded(), nw.Diagnosability())
	}
}

// TestGrowthKernelPromotion checks the generic→kernel transition: a
// removal drops the hypercube kernel to generic, a full restore
// re-verifies the kept descriptor and re-binds it, logged in the
// report.
func TestGrowthKernelPromotion(t *testing.T) {
	nw := topology.NewHypercube(7)
	eng := NewEngine(nw)
	want := eng.KernelName()
	if want == "generic" {
		t.Fatal("expected a specialised kernel on a fresh hypercube bind")
	}
	rr := eng.Graph().RemoveNodes([]int32{5})
	rep, err := eng.Rebind(rr)
	if err != nil {
		t.Fatal(err)
	}
	if eng.KernelName() != "generic" || rep.KernelFallbackReason == "" {
		t.Fatalf("expected generic fallback after node removal, got %q (%+v)", eng.KernelName(), rep)
	}
	rep2, err := eng.Rebind(graph.Restore(rr, []int32{5}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if eng.KernelName() != want {
		t.Fatalf("kernel %q after full restore, want %q", eng.KernelName(), want)
	}
	if rep2.KernelPromotion == "" || !strings.Contains(rep2.KernelPromotion, want) {
		t.Fatalf("promotion not logged: %+v", rep2)
	}
	if rep2.KernelBefore != "generic" || rep2.KernelAfter != want {
		t.Fatalf("kernel transition %q->%q, want generic->%q", rep2.KernelBefore, rep2.KernelAfter, want)
	}
}

// TestGrowthCacheRemap runs a ResultCache through a full flap: entries
// populated before the churn are flushed or remapped on the way down
// and remapped back on the way up, with the degraded stamp cleared —
// post-recovery hits serve non-degraded Stats.
func TestGrowthCacheRemap(t *testing.T) {
	nw := topology.NewHypercube(7)
	eng := NewEngine(nw)
	cache := NewResultCache(64)
	rng := rand.New(rand.NewSource(23))
	opt := Options{ResultCache: cache}

	var syns []*syndrome.Lazy
	for i := 0; i < 6; i++ {
		F := syndrome.RandomFaults(eng.Graph().N(), 1+rng.Intn(3), rng)
		s := syndrome.NewLazy(F, syndrome.Mimic{})
		if _, _, err := eng.DiagnoseOpts(s, opt); err != nil {
			t.Fatal(err)
		}
		syns = append(syns, s)
	}
	rr := eng.Graph().RemoveNodes([]int32{3, 77})
	rep1, err := eng.Rebind(rr, cache)
	if err != nil {
		t.Fatal(err)
	}
	gr := graph.Restore(rr, []int32{3, 77}, nil)
	rep2, err := eng.Rebind(gr, cache)
	if err != nil {
		t.Fatal(err)
	}
	// Growth remaps through a total id map: everything the removal kept
	// must survive the growth.
	if rep2.CacheFlushed != 0 || rep2.CacheKept != rep1.CacheKept {
		t.Fatalf("growth cache census %d flushed/%d kept, want 0/%d", rep2.CacheFlushed, rep2.CacheKept, rep1.CacheKept)
	}
	if rep2.CacheKept == 0 {
		t.Skip("removal flushed every entry; nothing to check post-recovery")
	}
	before := cache.Stats()
	served := 0
	for _, s := range syns {
		F := s.Faults()
		if F.Count() > eng.Diagnosability() {
			continue
		}
		_, st, err := eng.DiagnoseOpts(syndrome.NewLazy(F.Clone(), syndrome.Mimic{}), opt)
		if err != nil {
			t.Fatal(err)
		}
		if cache.Stats().Hits > before.Hits+int64(served) {
			served++
			if st.Degraded || st.EffectiveDelta != 0 {
				t.Fatalf("post-recovery cache hit still stamped degraded: %+v", st)
			}
		}
	}
	if served == 0 && rep2.CacheKept > 0 {
		t.Fatalf("no remapped entry served a hit after recovery (kept %d)", rep2.CacheKept)
	}
}

// TestGrowthRebindRejectsMismatched checks the growth-side validation:
// growing an engine that was never churned, and growing across the
// wrong anchor, both fail without mutating the engine.
func TestGrowthRebindRejectsMismatched(t *testing.T) {
	nw := topology.NewHypercube(6)
	eng := NewEngine(nw)
	g := eng.Graph()
	rr := g.RemoveNodes([]int32{1})
	gr := graph.Restore(rr, []int32{1}, nil)
	if _, err := eng.Rebind(gr); err == nil {
		t.Fatal("growth rebind on an unchurned engine must fail")
	}
	if _, err := eng.Rebind(rr); err != nil {
		t.Fatal(err)
	}
	// A second removal makes gr stale: it maps the first survivor, not
	// the current one.
	rr2 := eng.Graph().RemoveNodes([]int32{0})
	if _, err := eng.Rebind(rr2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rebind(graph.Restore(rr, []int32{1}, nil)); err == nil {
		t.Fatal("stale growth (wrong survivor space) must be rejected")
	}
	if eng.Graph().N() != rr2.G.N() {
		t.Fatal("failed growth rebind mutated the engine")
	}
}

// goneNodes lists the old-space ids a mapping leaves behind.
func goneNodes(oldToNew []int32) []int32 {
	var gone []int32
	for old := int32(0); int(old) < len(oldToNew); old++ {
		if oldToNew[old] < 0 {
			gone = append(gone, old)
		}
	}
	return gone
}

// TestRecoverQuickInterleavings is the testing/quick differential leg:
// random remove/restore interleavings on Q6 — removals stack, restores
// chew at the most recent chain — each step cross-checked against the
// free reference, then the whole stack is unwound and the engine
// checked bit-identical to a fresh bind.
func TestRecoverQuickInterleavings(t *testing.T) {
	nw := topology.NewHypercube(6)
	type chain struct {
		res  *graph.Removal // residual removal vs its own anchor world
		gone []int32        // anchor-space ids still out
	}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(nw)
		var stack []chain
		steps := 3 + rng.Intn(5)
		for step := 0; step < steps; step++ {
			if len(stack) == 0 || rng.Intn(2) == 0 {
				// Remove 1-3 random current nodes; the removal anchors at
				// the engine's current world, so it stacks on top.
				g := eng.Graph()
				if g.N() < 8 {
					break
				}
				picks := distinctNodes(g.N(), 1+rng.Intn(3), rng)
				rr := g.RemoveNodes(picks)
				if rr.G.N() == 0 {
					continue
				}
				if _, err := eng.Rebind(rr); err != nil {
					t.Logf("seed %d step %d: removal rebind: %v", seed, step, err)
					return false
				}
				stack = append(stack, chain{res: rr, gone: goneNodes(rr.OldToNew)})
			} else {
				// Restore a random non-empty subset of the top chain's
				// gone set; a full restore pops the chain and re-exposes
				// the removal beneath it.
				top := &stack[len(stack)-1]
				k := 1 + rng.Intn(len(top.gone))
				subset := make([]int32, 0, k)
				for _, u := range rng.Perm(len(top.gone))[:k] {
					subset = append(subset, top.gone[u])
				}
				gr := graph.Restore(top.res, subset, nil)
				if _, err := eng.Rebind(gr); err != nil {
					t.Logf("seed %d step %d: growth rebind: %v", seed, step, err)
					return false
				}
				top.res = gr.Remaining
				top.gone = goneNodes(gr.OldToNew)
				if len(top.gone) == 0 && len(gr.Remaining.GoneEdges) == 0 {
					stack = stack[:len(stack)-1]
				}
			}
			if perr := eng.PartsErr(); perr != nil {
				continue // unservable this step; later restores may lift it
			}
			parts, _ := eng.Parts()
			delta2 := eng.Diagnosability()
			g2 := eng.Graph()
			F := syndrome.RandomFaults(g2.N(), rng.Intn(delta2+1), rng)
			f1, st1, err1 := eng.Diagnose(syndrome.NewLazy(F, syndrome.Mimic{}))
			f2, st2, err2 := DiagnoseGraph(g2, delta2, parts, syndrome.NewLazy(F, syndrome.Mimic{}), Options{})
			if err1 != nil || err2 != nil {
				t.Logf("seed %d step %d: errs %v / %v", seed, step, err1, err2)
				return false
			}
			if !f1.Equal(f2) {
				t.Logf("seed %d step %d: fault sets diverge", seed, step)
				return false
			}
			if eng.Degraded() {
				if zeroDegraded(*st1) != *st2 {
					t.Logf("seed %d step %d: stats diverge: %+v vs %+v", seed, step, st1, st2)
					return false
				}
			} else if *st1 != *st2 {
				t.Logf("seed %d step %d: stats diverge: %+v vs %+v", seed, step, st1, st2)
				return false
			}
		}
		// Unwind the whole stack: each full restore re-exposes the
		// removal beneath it, and the last one clears the degraded stamp.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			gr := graph.Restore(top.res, top.gone, top.res.GoneEdges)
			if _, err := eng.Rebind(gr); err != nil {
				t.Logf("seed %d: unwinding %d chains: %v", seed, len(stack), err)
				return false
			}
			if gr.StillGone != 0 || len(gr.Remaining.GoneEdges) != 0 {
				t.Logf("seed %d: full restore left %d nodes/%d edges gone", seed, gr.StillGone, len(gr.Remaining.GoneEdges))
				return false
			}
			stack = stack[:len(stack)-1]
		}
		if eng.Degraded() {
			t.Logf("seed %d: still degraded after unwinding every chain", seed)
			return false
		}
		fresh := NewEngine(nw)
		if eng.Diagnosability() != fresh.Diagnosability() || eng.KernelName() != fresh.KernelName() {
			t.Logf("seed %d: recovered engine differs from fresh bind", seed)
			return false
		}
		F := syndrome.RandomFaults(eng.Graph().N(), rng.Intn(fresh.Diagnosability()+1), rng)
		f1, st1, err1 := eng.Diagnose(syndrome.NewLazy(F, syndrome.Mimic{}))
		f2, st2, err2 := fresh.Diagnose(syndrome.NewLazy(F, syndrome.Mimic{}))
		if err1 != nil || err2 != nil || !f1.Equal(f2) || *st1 != *st2 {
			t.Logf("seed %d: final diagnosis differs from fresh bind", seed)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredWarmDiagnoseZeroAlloc pins the scratch-pool contract
// across a flap: the graph grows back, scratches resize once, and the
// warm post-recovery diagnose path allocates nothing.
func TestRecoveredWarmDiagnoseZeroAlloc(t *testing.T) {
	eng := NewEngine(topology.NewHypercube(8))
	rr := eng.Graph().RemoveNodes([]int32{17, 42})
	if _, err := eng.Rebind(rr); err != nil {
		t.Fatal(err)
	}
	// Warm the degraded path first so pooled scratches hold the smaller
	// graph, then recover — the regrown binding must resize them without
	// breaking the steady state.
	gSmall := eng.Graph()
	sPre := syndrome.NewLazy(syndrome.RandomFaults(gSmall.N(), 2, rand.New(rand.NewSource(5))), syndrome.Mimic{})
	if _, _, err := eng.Diagnose(sPre); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rebind(graph.Restore(rr, []int32{17, 42}, nil)); err != nil {
		t.Fatal(err)
	}
	if eng.Degraded() {
		t.Fatal("engine still degraded after full restore")
	}
	g := eng.Graph()
	F := syndrome.RandomFaults(g.N(), eng.Diagnosability(), rand.New(rand.NewSource(3)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	sc := eng.AcquireScratch()
	defer eng.ReleaseScratch(sc)
	opt := Options{Scratch: sc}
	if _, _, err := eng.DiagnoseOpts(s, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := eng.DiagnoseOpts(s, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm diagnose after recovery allocates %.1f per op, want 0", allocs)
	}
}

// TestGrowthRebindLiftsUnservable drives an engine into
// ErrNoSurvivingPartition with one heavy removal and checks a full
// restore lifts it all the way back to δ.
func TestGrowthRebindLiftsUnservable(t *testing.T) {
	nw := topology.NewHypercube(6)
	rng := rand.New(rand.NewSource(31))
	var eng *Engine
	var rr *graph.Removal
	for k := 8; k <= 56 && eng == nil; k += 8 {
		for trial := 0; trial < 20; trial++ {
			e := NewEngine(nw)
			r := e.Graph().RemoveNodes(distinctNodes(e.Graph().N(), k, rng))
			if r.G.N() == 0 {
				continue
			}
			if _, err := e.Rebind(r); err != nil {
				t.Fatal(err)
			}
			if errors.Is(e.PartsErr(), ErrNoSurvivingPartition) {
				eng, rr = e, r
				break
			}
		}
	}
	if eng == nil {
		t.Skip("no removal produced the unservable sentinel")
	}
	gr := graph.Restore(rr, goneNodes(rr.OldToNew), rr.GoneEdges)
	rep, err := eng.Rebind(gr)
	if err != nil {
		t.Fatal(err)
	}
	if eng.PartsErr() != nil {
		t.Fatalf("full restore should lift the sentinel, got %v (report %+v)", eng.PartsErr(), rep)
	}
	if eng.Diagnosability() != nw.Diagnosability() || eng.Degraded() {
		t.Fatalf("δ′ = %d (degraded=%v) after lifting restore, want δ = %d", eng.Diagnosability(), eng.Degraded(), nw.Diagnosability())
	}
}
