package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// setGOMAXPROCS raises (or pins) the scheduler's parallelism for one
// test and restores it afterwards. Worker counts are clamped to
// GOMAXPROCS everywhere (see ClampWorkers), so tests that exercise
// genuinely parallel paths must lift the limit explicitly — the CI
// container runs with GOMAXPROCS=1.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// repeatedSyndromes builds `total` lazy syndromes drawn from `distinct`
// (fault set, behaviour) pairs, each a fresh Lazy value (DiagnoseBatch
// requires distinct syndromes even for one hypothesis). Returned
// alongside: an equal reference syndrome per slot for free-function
// comparison.
func repeatedSyndromes(nw topology.Network, total, distinct int) (syns, refs []syndrome.Syndrome) {
	g := nw.Graph()
	delta := nw.Diagnosability()
	behaviors := syndrome.AllBehaviors(11)
	faultSets := make([]*bitset.Set, distinct)
	for d := range faultSets {
		faultSets[d] = syndrome.RandomFaults(g.N(), 1+d%(delta), rand.New(rand.NewSource(int64(300+d))))
	}
	syns = make([]syndrome.Syndrome, total)
	refs = make([]syndrome.Syndrome, total)
	for i := range syns {
		d := i % distinct
		b := behaviors[d%len(behaviors)]
		syns[i] = syndrome.NewLazy(faultSets[d], b)
		refs[i] = syndrome.NewLazy(faultSets[d], b)
	}
	return syns, refs
}

// TestResultCacheBatchMatchesLoop pins the cache's core contract: a
// cached batch produces, per syndrome, exactly the fault set, Stats
// and error of the free-function loop — while repeated syndromes are
// never consulted at all (their Lookups stay 0) and the cache records
// one miss per distinct hypothesis.
func TestResultCacheBatchMatchesLoop(t *testing.T) {
	nw := topology.NewHypercube(10)
	const total, distinct = 32, 8
	syns, refs := repeatedSyndromes(nw, total, distinct)
	eng := NewEngine(nw)
	cache := NewResultCache(64)
	// One worker: with several, a repeat can run concurrently with its
	// populating diagnosis and miss legitimately.
	results := eng.DiagnoseBatch(syns, BatchOptions{Workers: 1, Options: Options{ResultCache: cache}})
	for i, r := range results {
		want, wantStats, wantErr := Diagnose(nw, refs[i])
		if (r.Err == nil) != (wantErr == nil) {
			t.Fatalf("syndrome %d: err %v vs %v", i, r.Err, wantErr)
		}
		if wantErr == nil && !r.Faults.Equal(want) {
			t.Fatalf("syndrome %d: cached fault set differs", i)
		}
		if r.Stats != *wantStats {
			t.Fatalf("syndrome %d: cached stats %+v differ from free-function %+v", i, r.Stats, *wantStats)
		}
		if i >= distinct && syns[i].Lookups() != 0 {
			t.Fatalf("syndrome %d: repeated syndrome was consulted %d times, want 0", i, syns[i].Lookups())
		}
		if i < distinct && syns[i].Lookups() != refs[i].Lookups() {
			t.Fatalf("syndrome %d: populating run consulted %d, reference %d", i, syns[i].Lookups(), refs[i].Lookups())
		}
	}
	cs := cache.Stats()
	if cs.Misses != distinct || cs.Hits != total-distinct {
		t.Fatalf("cache stats %+v, want %d misses and %d hits", cs, distinct, total-distinct)
	}
	if cs.Entries != distinct || cs.Evictions != 0 {
		t.Fatalf("cache stats %+v, want %d entries and no evictions", cs, distinct)
	}
}

// TestResultCacheOffIsBitIdentical is the acceptance pin for the
// default path: with no cache, batch results — fault sets and
// per-syndrome look-up counts — are bit-identical to the free-function
// loop even when the batch repeats syndromes.
func TestResultCacheOffIsBitIdentical(t *testing.T) {
	nw := topology.NewHypercube(9)
	syns, refs := repeatedSyndromes(nw, 12, 4)
	eng := NewEngine(nw)
	for i, r := range eng.DiagnoseBatch(syns, BatchOptions{}) {
		want, wantStats, wantErr := Diagnose(nw, refs[i])
		if (r.Err == nil) != (wantErr == nil) {
			t.Fatalf("syndrome %d: err %v vs %v", i, r.Err, wantErr)
		}
		if wantErr == nil && !r.Faults.Equal(want) {
			t.Fatalf("syndrome %d: fault sets differ", i)
		}
		if wantErr == nil && r.Stats.TotalLookups != wantStats.TotalLookups {
			t.Fatalf("syndrome %d: lookups %d vs %d", i, r.Stats.TotalLookups, wantStats.TotalLookups)
		}
		if syns[i].Lookups() != refs[i].Lookups() {
			t.Fatalf("syndrome %d: syndrome counters diverged", i)
		}
	}
}

// TestResultCacheScratchHit pins the Options.Scratch interaction: a
// cache hit served into a caller scratch returns views (not aliases of
// cached state) identical to a fresh diagnosis, and the error outcomes
// (beyond-δ hypotheses) replay as faithfully as the successes.
func TestResultCacheScratchHit(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	delta := nw.Diagnosability()
	eng := NewEngine(nw)
	cache := NewResultCache(8)
	sc := eng.AcquireScratch()
	defer eng.ReleaseScratch(sc)
	opt := Options{Scratch: sc, ResultCache: cache}

	okF := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(5)))
	// Beyond-δ faults under the all-one adversary: growth stops at every
	// fault, so the surviving healthy set's boundary exceeds δ and the
	// diagnosis fails with a typed error — deterministically cacheable.
	badF := syndrome.RandomFaults(g.N(), delta+3, rand.New(rand.NewSource(6)))
	for trial := 0; trial < 2; trial++ { // second round is all hits
		s := syndrome.NewLazy(okF, syndrome.Mimic{})
		got, stats, err := eng.DiagnoseOpts(s, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(okF) {
			t.Fatalf("trial %d: misdiagnosis", trial)
		}
		if trial == 1 && s.Lookups() != 0 {
			t.Fatalf("hit consulted the syndrome %d times", s.Lookups())
		}
		if got != sc.faultsBuf() || stats != &sc.stats {
			t.Fatalf("trial %d: results are not scratch views", trial)
		}

		sBad := syndrome.NewLazy(badF, syndrome.AllOne{})
		_, _, errBad := eng.DiagnoseOpts(sBad, opt)
		if !errors.Is(errBad, ErrTooManyFaults) && !errors.Is(errBad, ErrNoHealthyPart) {
			t.Fatalf("trial %d: beyond-δ error not replayed: %v", trial, errBad)
		}
		if trial == 1 && sBad.Lookups() != 0 {
			t.Fatalf("error hit consulted the syndrome %d times", sBad.Lookups())
		}
	}
	if cs := cache.Stats(); cs.Hits != 2 || cs.Misses != 2 {
		t.Fatalf("cache stats %+v, want 2 hits and 2 misses", cs)
	}
}

// TestResultCacheKeySeparation pins the key: hypotheses equal in fault
// set but differing in behaviour — including two Random behaviours
// that differ only in seed — must not collide.
func TestResultCacheKeySeparation(t *testing.T) {
	nw := topology.NewHypercube(8)
	delta := nw.Diagnosability()
	F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(9)))
	eng := NewEngine(nw)
	cache := NewResultCache(16)
	behaviors := []syndrome.Behavior{
		syndrome.Mimic{}, syndrome.AllOne{}, syndrome.Random{Seed: 1}, syndrome.Random{Seed: 2},
	}
	for round := 0; round < 2; round++ {
		for _, b := range behaviors {
			s := syndrome.NewLazy(F, b)
			got, _, err := eng.DiagnoseOpts(s, Options{ResultCache: cache})
			want, _, wantErr := Diagnose(nw, syndrome.NewLazy(F, b))
			if (err == nil) != (wantErr == nil) || (err == nil && !got.Equal(want)) {
				t.Fatalf("round %d %s: cached result diverges from reference", round, b.Name())
			}
		}
	}
	if cs := cache.Stats(); cs.Misses != int64(len(behaviors)) || cs.Hits != int64(len(behaviors)) {
		t.Fatalf("cache stats %+v, want %d misses and %d hits", cache.Stats(), len(behaviors), len(behaviors))
	}
	// A tightened fault bound is a distinct key: it changes the
	// partition the diagnosis runs on.
	s := syndrome.NewLazy(syndrome.RandomFaults(nw.Graph().N(), 2, rand.New(rand.NewSource(3))), syndrome.Mimic{})
	if _, _, err := eng.DiagnoseOpts(s, Options{ResultCache: cache, FaultBound: 2}); err != nil {
		t.Fatal(err)
	}
	s2 := syndrome.NewLazy(s.Faults(), syndrome.Mimic{})
	if _, _, err := eng.DiagnoseOpts(s2, Options{ResultCache: cache}); err != nil {
		t.Fatal(err)
	}
	if s2.Lookups() == 0 {
		t.Fatal("bounded and unbounded diagnoses shared a cache entry")
	}
}

// TestResultCacheEviction pins the bound: the cache never exceeds its
// capacity, evicts least-recently-used entries, and stays correct
// throughout.
func TestResultCacheEviction(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	eng := NewEngine(nw)
	cache := NewResultCache(2)
	for i := 0; i < 6; i++ {
		F := syndrome.RandomFaults(g.N(), 3, rand.New(rand.NewSource(int64(i%3))))
		s := syndrome.NewLazy(F, syndrome.Mimic{})
		got, _, err := eng.DiagnoseOpts(s, Options{ResultCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(F) {
			t.Fatalf("i=%d: misdiagnosis under eviction pressure", i)
		}
	}
	cs := cache.Stats()
	if cs.Entries > 2 {
		t.Fatalf("cache grew to %d entries, capacity 2", cs.Entries)
	}
	if cs.Evictions == 0 {
		t.Fatal("expected evictions with 3 hypotheses and capacity 2")
	}
}

// TestResultCacheConcurrentBatches hammers one shared cache from
// several concurrent DiagnoseBatch calls over overlapping hypothesis
// sets — the -race half of the cache contract. Every result must still
// equal its injected hypothesis.
func TestResultCacheConcurrentBatches(t *testing.T) {
	setGOMAXPROCS(t, 4)
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	delta := nw.Diagnosability()
	eng := NewEngine(nw)
	cache := NewResultCache(32)
	faultSets := make([]*bitset.Set, 6)
	for d := range faultSets {
		faultSets[d] = syndrome.RandomFaults(g.N(), 1+d%delta, rand.New(rand.NewSource(int64(40+d))))
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			syns := make([]syndrome.Syndrome, 18)
			want := make([]*bitset.Set, len(syns))
			for i := range syns {
				F := faultSets[(seed+i)%len(faultSets)]
				want[i] = F
				syns[i] = syndrome.NewLazy(F, syndrome.Mimic{})
			}
			opt := BatchOptions{Workers: 2, Options: Options{ResultCache: cache}}
			for i, r := range eng.DiagnoseBatch(syns, opt) {
				if r.Err != nil {
					t.Error(r.Err)
					return
				}
				if !r.Faults.Equal(want[i]) {
					t.Error("misdiagnosis under concurrent cached batches")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if cs := cache.Stats(); cs.Hits == 0 {
		t.Fatalf("expected cache hits across concurrent batches, got %+v", cs)
	}
}
