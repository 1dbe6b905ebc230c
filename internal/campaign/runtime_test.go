package campaign

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// setGOMAXPROCS raises the scheduler parallelism for one test (worker
// counts clamp to GOMAXPROCS; the CI container runs with 1).
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestSweepDeterministicAcrossPools pins the tentpole's bit-identity
// claim: the same Config produces identical points whether the sweep
// runs on one worker, on a wide pool, or on a reused caller-owned
// runtime serving several sweeps back to back — trial outcomes depend
// only on the trial index.
func TestSweepDeterministicAcrossPools(t *testing.T) {
	setGOMAXPROCS(t, 4)
	nw := topology.NewHypercube(7)
	cfg := Config{MinFaults: 0, MaxFaults: nw.Diagnosability() + 2, Trials: 12, Seed: 7}

	cfg.Workers = 1
	want := Sweep(nw, cfg)
	cfg.Workers = 4
	if got := Sweep(nw, cfg); !pointsEqual(got, want) {
		t.Fatalf("4-worker sweep diverged from sequential: %+v vs %+v", got, want)
	}

	rt := NewRuntime(core.NewEngine(nw), 3)
	defer rt.Close()
	for round := 0; round < 2; round++ {
		if got := SweepRuntime(rt, cfg); !pointsEqual(got, want) {
			t.Fatalf("shared-runtime sweep round %d diverged: %+v vs %+v", round, got, want)
		}
	}
	if s := rt.Stats(); s.TotalTrials() != int64(2*cfg.Trials*(cfg.MaxFaults+1)) {
		t.Fatalf("runtime served %d trials, want %d", s.TotalTrials(), 2*cfg.Trials*(cfg.MaxFaults+1))
	}
}

// TestSweepWithResultCacheMatches pins the cached sweep: outcomes are
// identical with the cache on, and the low-fault points actually hit it
// (every f = 0 trial after the first replays the empty hypothesis).
func TestSweepWithResultCacheMatches(t *testing.T) {
	nw := topology.NewHypercube(7)
	cfg := Config{MinFaults: 0, MaxFaults: 3, Trials: 10, Seed: 3, Workers: 1}
	want := Sweep(nw, cfg)

	cfg.Cache = core.NewResultCache(256)
	got := Sweep(nw, cfg)
	if !pointsEqual(got, want) {
		t.Fatalf("cached sweep diverged: %+v vs %+v", got, want)
	}
	if cs := cfg.Cache.Stats(); cs.Hits < int64(cfg.Trials-1) {
		t.Fatalf("expected at least %d cache hits from the f=0 point, got %+v", cfg.Trials-1, cs)
	}
}

// TestRuntimeRunChunking pins the queue mechanics: every trial index
// runs exactly once, across job sizes that exercise single-chunk,
// ragged and many-chunk dealing, and the stats ledger adds up. It also
// pins the lazy PRNG: a job whose trials draw none leaves every worker
// without one, and a trial that asks for one gets it seeded as a fresh
// rand.NewSource would be.
func TestRuntimeRunChunking(t *testing.T) {
	setGOMAXPROCS(t, 4)
	rt := NewRuntime(core.NewEngine(topology.NewHypercube(5)), 4)
	defer rt.Close()
	var jobs int64
	var total int64
	for _, n := range []int{1, 3, 4, 17, 64} {
		hits := make([]atomic.Int32, n)
		rt.Run(n, func(w *Worker, i int) {
			hits[i].Add(1)
			if w.Scratch == nil {
				t.Error("worker scratch not pinned")
			}
			if w.rng != nil {
				t.Error("a job that draws no trial created a PRNG")
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("n=%d: trial %d ran %d times", n, i, hits[i].Load())
			}
		}
		jobs++
		total += int64(n)
	}
	for _, n := range []int{1, 17} {
		rt.Run(n, func(w *Worker, i int) {
			seed := int64(1_000_003*n + i)
			got := w.Rand(seed).Int63()
			if want := rand.New(rand.NewSource(seed)).Int63(); got != want {
				t.Errorf("trial %d of %d: PRNG drew %d, a fresh source %d", i, n, got, want)
			}
		})
		jobs++
		total += int64(n)
	}
	s := rt.Stats()
	if s.Jobs != jobs || s.TotalTrials() != total {
		t.Fatalf("stats %+v, want %d jobs and %d trials", s, jobs, total)
	}
	if s.Workers != 4 || len(s.Trials) != 4 {
		t.Fatalf("stats report %d workers", s.Workers)
	}
}

// TestRuntimeDiagnoseBatchMatchesEngine pins the BatchPool plumbing:
// a batch served on the persistent pool is result- and
// lookup-identical to the engine's transient pool.
func TestRuntimeDiagnoseBatchMatchesEngine(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	delta := nw.Diagnosability()
	eng := core.NewEngine(nw)
	rt := NewRuntime(eng, 2)
	defer rt.Close()

	const trials = 10
	syns := make([]syndrome.Syndrome, trials)
	refs := make([]syndrome.Syndrome, trials)
	for i := range syns {
		F := syndrome.RandomFaults(g.N(), 1+i%delta, rand.New(rand.NewSource(int64(i))))
		syns[i] = syndrome.NewLazy(F, syndrome.Mimic{})
		refs[i] = syndrome.NewLazy(F, syndrome.Mimic{})
	}
	got := rt.DiagnoseBatch(syns, core.BatchOptions{})
	want := eng.DiagnoseBatch(refs, core.BatchOptions{})
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("syndrome %d: err %v vs %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Err == nil && !got[i].Faults.Equal(want[i].Faults) {
			t.Fatalf("syndrome %d: fault sets differ", i)
		}
		if got[i].Stats != want[i].Stats {
			t.Fatalf("syndrome %d: stats differ: %+v vs %+v", i, got[i].Stats, want[i].Stats)
		}
	}
}

func pointsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRuntimeDiagnoseBatchSharedFinalPrefix pins the grouped-batch
// plumbing through the persistent pool: ShareHypotheses on a Runtime
// produces the same fault sets and shape stats as the engine's
// transient pool, with members adopting a shared final prefix and the
// group spending strictly fewer look-ups than an unshared runtime
// batch.
func TestRuntimeDiagnoseBatchSharedFinalPrefix(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	delta := nw.Diagnosability()
	eng := core.NewEngine(nw)
	rt := NewRuntime(eng, 3)
	defer rt.Close()

	F := syndrome.ClusterFaults(g, int32(g.N()-1), delta)
	behaviors := syndrome.AllBehaviors(9)
	makeSyns := func() []syndrome.Syndrome {
		var syns []syndrome.Syndrome
		for round := 0; round < 2; round++ {
			for _, b := range behaviors {
				syns = append(syns, syndrome.NewLazy(F, b))
			}
		}
		return syns
	}

	opt := core.BatchOptions{ShareHypotheses: true}
	plainSyns := makeSyns()
	plain := rt.DiagnoseBatch(plainSyns, core.BatchOptions{})
	sharedSyns := makeSyns()
	shared := rt.DiagnoseBatch(sharedSyns, opt)
	transient := eng.DiagnoseBatch(makeSyns(), opt)

	var plainLookups, sharedLookups int64
	members := 0
	for i := range shared {
		if shared[i].Err != nil || plain[i].Err != nil || transient[i].Err != nil {
			t.Fatalf("syndrome %d: %v / %v / %v", i, shared[i].Err, plain[i].Err, transient[i].Err)
		}
		if !shared[i].Faults.Equal(plain[i].Faults) || !shared[i].Faults.Equal(transient[i].Faults) {
			t.Fatalf("syndrome %d: runtime grouped batch diverged", i)
		}
		if shared[i].Stats != transient[i].Stats {
			t.Fatalf("syndrome %d: runtime stats %+v differ from transient pool %+v",
				i, shared[i].Stats, transient[i].Stats)
		}
		plainLookups += plainSyns[i].(*syndrome.Lazy).Lookups()
		sharedLookups += sharedSyns[i].(*syndrome.Lazy).Lookups()
		if shared[i].Stats.SharedFinalLookups > 0 {
			members++
		}
	}
	if members == 0 {
		t.Fatal("no member adopted a shared final prefix on the runtime pool")
	}
	if sharedLookups >= plainLookups {
		t.Fatalf("grouped runtime batch consulted %d look-ups, unshared %d", sharedLookups, plainLookups)
	}
}

// TestRuntimeTrialPanicReachesCaller pins panic isolation: a trial
// panic is recovered on its worker, the job ends, Run re-panics in its
// caller with the original value, and the same runtime — every worker
// still alive — then serves the next Run exactly.
func TestRuntimeTrialPanicReachesCaller(t *testing.T) {
	setGOMAXPROCS(t, 2)
	nw := topology.NewHypercube(7)
	rt := NewRuntime(core.NewEngine(nw), 2)
	defer rt.Close()

	const poison = "poisoned trial"
	var got any
	func() {
		defer func() { got = recover() }()
		rt.Run(64, func(w *Worker, i int) {
			if i == 5 {
				panic(poison)
			}
		})
	}()
	if got != poison {
		t.Fatalf("Run panicked with %v, want %q", got, poison)
	}

	cfg := Config{MinFaults: 0, MaxFaults: nw.Diagnosability() + 2, Trials: 12, Seed: 7, Workers: 1}
	want := Sweep(nw, cfg)
	if got := SweepRuntime(rt, cfg); !pointsEqual(got, want) {
		t.Fatalf("sweep after a panicked job diverged: %+v vs %+v", got, want)
	}
	hits := make([]atomic.Int32, 64)
	rt.Run(len(hits), func(w *Worker, i int) {
		if w.Scratch == nil {
			t.Error("worker runs a trial without a scratch")
		}
		hits[i].Add(1)
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("trial %d ran %d times after the panicked job", i, hits[i].Load())
		}
	}
}

// TestRuntimeIdleFootprint pins the per-job scratch rule: an implicit
// Q20 runtime whose two workers each diagnosed once retains less than
// 1 MiB once the job is over and two collections have emptied the
// engine's scratch pool. A worker that kept its scratch would pin
// ~13 MiB of dense per-node arrays; the full Q20 partition would add
// 5 MiB.
func TestRuntimeIdleFootprint(t *testing.T) {
	setGOMAXPROCS(t, 2)
	const bitsN = 20
	masks := make([]int32, bitsN)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	F := syndrome.RandomFaults(1<<bitsN, bitsN, rand.New(rand.NewSource(20)))

	before := liveHeap()
	eng, err := core.NewCayleyEngine(graph.XORCayley{Bits: bitsN, Masks: masks}, bitsN)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(eng, 2)
	defer rt.Close()
	rt.Run(2, func(w *Worker, i int) {
		got, _, err := eng.DiagnoseOpts(syndrome.NewLazy(F, syndrome.Mimic{}), core.Options{Scratch: w.Scratch})
		if err != nil || !got.Equal(F) {
			t.Errorf("trial %d: Q%d diagnosis inexact (%v)", i, bitsN, err)
		}
	})
	retained := liveHeap() - before
	runtime.KeepAlive(rt)
	if retained >= 1<<20 {
		t.Fatalf("idle Q%d runtime retains %d bytes, want < 1 MiB", bitsN, retained)
	}
}

// liveHeap is the live heap after two collections (the second empties
// the sync.Pool victim caches).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
