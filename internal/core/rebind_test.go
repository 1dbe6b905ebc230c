package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// zeroDegraded strips the churn stamp so degraded-engine Stats can be
// compared whole-struct against the free reference path.
func zeroDegraded(st Stats) Stats {
	st.Degraded = false
	st.EffectiveDelta = 0
	return st
}

// TestRebindDifferential removes random node sets from a hypercube and
// cross-checks three ways of serving the surviving component — the
// rebound engine, a Survivor engine, and the free DiagnoseGraph
// reference on the rebound partition — for identical fault sets, Stats
// and look-up counts, across behaviours.
func TestRebindDifferential(t *testing.T) {
	nw := topology.NewHypercube(8)
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 12; trial++ {
		base := NewEngine(nw)
		eng := NewEngine(nw)
		k := 1 + rng.Intn(12)
		seen := map[int32]bool{}
		var nodes []int32
		for len(nodes) < k {
			u := int32(rng.Intn(nw.Graph().N()))
			if !seen[u] {
				seen[u] = true
				nodes = append(nodes, u)
			}
		}
		rr := eng.Graph().RemoveNodes(nodes)
		surv, repS, err := base.Survivor(rr)
		if err != nil {
			t.Fatalf("trial %d: Survivor: %v", trial, err)
		}
		rep, err := eng.Rebind(rr)
		if err != nil {
			t.Fatalf("trial %d: Rebind: %v", trial, err)
		}
		if *rep != *repS {
			t.Fatalf("trial %d: Rebind report %+v != Survivor report %+v", trial, rep, repS)
		}
		if !eng.Degraded() || !surv.Degraded() {
			t.Fatalf("trial %d: churned engines must report Degraded", trial)
		}
		if eng.Diagnosability() != rep.EffectiveDelta {
			t.Fatalf("trial %d: Diagnosability() = %d, want report δ′ %d", trial, eng.Diagnosability(), rep.EffectiveDelta)
		}
		if base.Degraded() || base.Diagnosability() != nw.Diagnosability() {
			t.Fatalf("trial %d: Survivor mutated its source engine", trial)
		}
		parts, perr := eng.Parts()
		if perr != nil {
			t.Fatalf("trial %d: rebound engine unservable: %v", trial, perr)
		}
		delta2 := eng.Diagnosability()
		g2 := eng.Graph()
		for _, b := range []syndrome.Behavior{syndrome.Mimic{}, syndrome.Random{Seed: uint64(trial)}} {
			F := syndrome.RandomFaults(g2.N(), rng.Intn(delta2+1), rng)
			f1, st1, err1 := eng.Diagnose(syndrome.NewLazy(F, b))
			f2, st2, err2 := surv.Diagnose(syndrome.NewLazy(F, b))
			f3, st3, err3 := DiagnoseGraph(g2, delta2, parts, syndrome.NewLazy(F, b), Options{})
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("trial %d: errs %v / %v / %v", trial, err1, err2, err3)
			}
			if !f1.Equal(F) {
				t.Fatalf("trial %d: rebound engine diagnosed %v, want hypothesis %v", trial, f1, F)
			}
			if !f1.Equal(f2) || !f1.Equal(f3) {
				t.Fatalf("trial %d: fault sets diverge across serving paths", trial)
			}
			if !st1.Degraded || st1.EffectiveDelta != delta2 {
				t.Fatalf("trial %d: missing degraded stamp: %+v", trial, st1)
			}
			if *st1 != *st2 {
				t.Fatalf("trial %d: rebound stats %+v != survivor stats %+v", trial, st1, st2)
			}
			if st3.Degraded || st3.EffectiveDelta != 0 {
				t.Fatalf("trial %d: free path must not be stamped degraded: %+v", trial, st3)
			}
			if zeroDegraded(*st1) != *st3 {
				t.Fatalf("trial %d: engine stats %+v != reference stats %+v", trial, st1, st3)
			}
		}
	}
}

// TestRebindChainComposes applies two successive removals through
// Rebind and checks the twice-degraded engine still diagnoses its
// hypotheses exactly.
func TestRebindChainComposes(t *testing.T) {
	eng := NewEngine(topology.NewHypercube(8))
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2; step++ {
		rr := eng.Graph().RemoveNodes([]int32{int32(rng.Intn(eng.Graph().N()))})
		if _, err := eng.Rebind(rr); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	delta2 := eng.Diagnosability()
	if delta2 <= 0 {
		t.Fatalf("δ′ = %d after two single-node removals, want positive", delta2)
	}
	for trial := 0; trial < 8; trial++ {
		F := syndrome.RandomFaults(eng.Graph().N(), rng.Intn(delta2+1), rng)
		got, st, err := eng.Diagnose(syndrome.NewLazy(F, syndrome.Mimic{}))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(F) || !st.Degraded {
			t.Fatalf("trial %d: got %v (degraded=%v), want %v", trial, got, st.Degraded, F)
		}
	}
}

// TestRebindEmptyRemovalIsClean checks a no-op removal neither degrades
// the engine nor drops its structure kernel.
func TestRebindEmptyRemovalIsClean(t *testing.T) {
	nw := topology.NewHypercube(7)
	eng := NewEngine(nw)
	kern := eng.KernelName()
	if kern == "generic" {
		t.Fatal("hypercube engine should bind a structure kernel")
	}
	rep, err := eng.Rebind(eng.Graph().Remove(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Degraded() || rep.EffectiveDelta != nw.Diagnosability() {
		t.Fatalf("empty removal degraded the engine: %+v", rep)
	}
	if eng.KernelName() != kern || rep.KernelFallbackReason != "" {
		t.Fatalf("empty removal dropped the kernel: %s -> %s (%s)", kern, eng.KernelName(), rep.KernelFallbackReason)
	}
	_, st, err := eng.Diagnose(syndrome.NewLazy(bitset.New(eng.Graph().N()), syndrome.Mimic{}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded || st.EffectiveDelta != 0 {
		t.Fatalf("non-degraded engine stamped stats: %+v", st)
	}
}

// TestRebindCayleyFallback checks that node churn on a Cayley topology
// drops the structure kernel with a logged reason (the XOR descriptor
// cannot describe a punctured hypercube).
func TestRebindCayleyFallback(t *testing.T) {
	eng := NewEngine(topology.NewHypercube(7))
	before := eng.KernelName()
	rep, err := eng.Rebind(eng.Graph().RemoveNodes([]int32{3}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.KernelBefore != before || rep.KernelAfter != "generic" || eng.KernelName() != "generic" {
		t.Fatalf("want kernel %s -> generic, got %s -> %s", before, rep.KernelBefore, rep.KernelAfter)
	}
	if !strings.Contains(rep.KernelFallbackReason, "no longer verifies") {
		t.Fatalf("want a fallback reason, got %q", rep.KernelFallbackReason)
	}
}

// TestRebindRejectsStaleRemoval checks a removal built from a different
// graph generation fails without mutating the engine.
func TestRebindRejectsStaleRemoval(t *testing.T) {
	eng := NewEngine(topology.NewHypercube(7))
	rr := eng.Graph().RemoveNodes([]int32{0})
	if _, err := eng.Rebind(rr); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rebind(rr); err == nil {
		t.Fatal("stale removal (old-generation id map) must be rejected")
	}
}

// TestRebindCacheFlushAndRemap checks ResultCache.Rebind keeps exactly
// the surviving entries — remapped into new-id space and served as
// post-churn hits — and flushes entries touching removed ids.
func TestRebindCacheFlushAndRemap(t *testing.T) {
	nw := topology.NewHypercube(8)
	eng := NewEngine(nw)
	cache := NewResultCache(64)
	g := eng.Graph()
	removed := int32(5)

	// Hypothesis A contains the node about to be removed; B does not.
	A := bitset.FromMembers(g.N(), []int32{removed, 9})
	B := bitset.FromMembers(g.N(), []int32{100, 200})
	opt := Options{ResultCache: cache}
	if _, _, err := eng.DiagnoseOpts(syndrome.NewLazy(A, syndrome.Mimic{}), opt); err != nil {
		t.Fatal(err)
	}
	if _, st, err := eng.DiagnoseOpts(syndrome.NewLazy(B, syndrome.Mimic{}), opt); err != nil || st.Degraded {
		t.Fatalf("prime B: err=%v degraded=%v", err, st.Degraded)
	}
	if cs := cache.Stats(); cs.Entries != 2 {
		t.Fatalf("primed cache has %d entries, want 2", cs.Entries)
	}

	rr := g.RemoveNodes([]int32{removed})
	rep, err := eng.Rebind(rr, cache)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheFlushed != 1 || rep.CacheKept != 1 {
		t.Fatalf("cache census flushed=%d kept=%d, want 1/1", rep.CacheFlushed, rep.CacheKept)
	}

	// B remapped into new-id space must now be a hit with remapped
	// faults and the degraded stamp.
	B2, ok := remapSet(B, rr.OldToNew, eng.Graph().N())
	if !ok {
		t.Fatal("B should survive the removal")
	}
	before := cache.Stats()
	faults, st, err := eng.DiagnoseOpts(syndrome.NewLazy(B2, syndrome.Mimic{}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("remapped entry missed: %+v -> %+v", before, after)
	}
	if !faults.Equal(B2) {
		t.Fatalf("remapped hit returned %v, want %v", faults, B2)
	}
	if !st.Degraded || st.EffectiveDelta != eng.Diagnosability() || st.Delta != eng.Diagnosability() {
		t.Fatalf("remapped hit not stamped for the degraded binding: %+v", st)
	}

	// The flushed hypothesis (remapped is impossible — it contained the
	// removed node) re-diagnoses as a miss under the new epoch.
	A2 := bitset.FromMembers(eng.Graph().N(), []int32{1, 2})
	before = cache.Stats()
	if _, _, err := eng.DiagnoseOpts(syndrome.NewLazy(A2, syndrome.Mimic{}), opt); err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats(); after.Misses != before.Misses+1 {
		t.Fatalf("fresh hypothesis after rebind should miss: %+v -> %+v", before, after)
	}
}

// TestDiagnoseDuringRebindRace hammers concurrent Diagnose and
// DiagnoseBatch calls against successive Rebinds; correctness of each
// individual answer is checked elsewhere — this test exists for the
// race detector and asserts only that served calls stay internally
// consistent.
func TestDiagnoseDuringRebindRace(t *testing.T) {
	eng := NewEngine(topology.NewHypercube(8))
	cache := NewResultCache(128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The binding loaded inside Diagnose may be newer
				// (smaller) than g — ids stay in range either way, and
				// any outcome is acceptable under a torn snapshot.
				g := eng.Graph()
				F := syndrome.RandomFaults(g.N(), rng.Intn(4), rng)
				if i%3 == 0 {
					eng.DiagnoseBatch([]syndrome.Syndrome{
						syndrome.NewLazy(F, syndrome.Mimic{}),
						syndrome.NewLazy(F, syndrome.Mimic{}),
					}, BatchOptions{ShareHypotheses: true})
					continue
				}
				eng.DiagnoseOpts(syndrome.NewLazy(F, syndrome.Mimic{}), Options{ResultCache: cache})
			}
		}(int64(w))
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 6; round++ {
		g := eng.Graph()
		rr := g.RemoveNodes([]int32{int32(rng.Intn(g.N()))})
		if _, err := eng.Rebind(rr, cache); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	if !eng.Degraded() {
		t.Fatal("engine should be degraded after the churn rounds")
	}
}

// TestRebindNoSurvivingPartition drives the budget to exhaustion and
// checks the engine keeps serving δ′ = 0 (or reports the sentinel when
// even that is impossible) instead of panicking.
func TestRebindNoSurvivingPartition(t *testing.T) {
	eng := NewEngine(topology.NewHypercube(6))
	rng := rand.New(rand.NewSource(11))
	for eng.Graph().N() > 8 {
		g := eng.Graph()
		var nodes []int32
		seen := map[int32]bool{}
		for len(nodes) < 4 {
			u := int32(rng.Intn(g.N()))
			if !seen[u] {
				seen[u] = true
				nodes = append(nodes, u)
			}
		}
		if _, err := eng.Rebind(g.RemoveNodes(nodes)); err != nil {
			t.Fatal(err)
		}
		if perr := eng.PartsErr(); perr != nil {
			if !errors.Is(perr, ErrNoSurvivingPartition) {
				t.Fatalf("unexpected parts error: %v", perr)
			}
			if _, _, derr := eng.Diagnose(syndrome.NewLazy(bitset.New(eng.Graph().N()), syndrome.Mimic{})); !errors.Is(derr, ErrNoSurvivingPartition) {
				t.Fatalf("unservable engine should wrap the sentinel, got %v", derr)
			}
			return
		}
	}
	// All the way down to ≤ 8 nodes the partition kept shrinking but
	// serving: that is also a pass (δ′ reached the floor gracefully).
	if eng.Diagnosability() < 0 {
		t.Fatal("δ′ went negative")
	}
}

// TestRebindWarmDiagnoseZeroAlloc checks the steady-state scratch path
// stays allocation-free after a rebind.
func TestRebindWarmDiagnoseZeroAlloc(t *testing.T) {
	eng := NewEngine(topology.NewHypercube(8))
	if _, err := eng.Rebind(eng.Graph().RemoveNodes([]int32{17, 42})); err != nil {
		t.Fatal(err)
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
		t.Fatalf("warm diagnose after rebind allocates %.1f per op, want 0", allocs)
	}
}
