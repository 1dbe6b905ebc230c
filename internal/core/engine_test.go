package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// engineNetworks is the equivalence-test matrix: hypercubes exercise
// the word-parallel XOR-Cayley kernel (Q12 crosses its per-round
// threshold many rounds in a row), the folded hypercube its multi-bit
// complement mask, and the star and k-ary cube the generic pass (their
// adjacency is not XOR-structured).
func engineNetworks() []topology.Network {
	return []topology.Network{
		topology.NewHypercube(8),
		topology.NewHypercube(12),
		topology.NewFoldedHypercube(8),
		topology.NewStar(6),
		topology.NewKAryNCube(4, 3),
	}
}

// TestEngineMatchesFreeFunctions pins the engine's core contract: for
// the same syndrome, Engine.Diagnose and the free DiagnoseOpts produce
// identical fault sets, identical Stats (including every look-up
// counter) and leave the syndrome with identical Lookups totals — the
// specialised final pass must be observationally equivalent to the
// reference loop.
func TestEngineMatchesFreeFunctions(t *testing.T) {
	for _, nw := range engineNetworks() {
		eng := NewEngine(nw)
		delta := nw.Diagnosability()
		for trial := int64(0); trial < 6; trial++ {
			F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(trial)))

			s1 := syndrome.NewLazy(F, syndrome.Mimic{})
			f1, st1, err1 := DiagnoseOpts(nw, s1, Options{})

			s2 := syndrome.NewLazy(F, syndrome.Mimic{})
			f2, st2, err2 := eng.Diagnose(s2)

			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s trial %d: error mismatch: %v vs %v", nw.Name(), trial, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !f1.Equal(f2) {
				t.Fatalf("%s trial %d: fault sets differ: %v vs %v", nw.Name(), trial, f1, f2)
			}
			if *st1 != *st2 {
				t.Fatalf("%s trial %d: stats differ:\nfree   %+v\nengine %+v", nw.Name(), trial, st1, st2)
			}
			if s1.Lookups() != s2.Lookups() {
				t.Fatalf("%s trial %d: lookups differ: %d vs %d", nw.Name(), trial, s1.Lookups(), s2.Lookups())
			}
		}
	}
}

// TestEngineEquivalenceBeyondGuarantee extends the equivalence to the
// campaign regime past δ, where certified parts can be wrong and the
// final pass can run from a faulty seed with faulty testers: the
// specialised kernel must still mirror the reference loop exactly,
// error-for-error and look-up-for-look-up, under every adversary.
func TestEngineEquivalenceBeyondGuarantee(t *testing.T) {
	nw := topology.NewHypercube(8)
	eng := NewEngine(nw)
	delta := nw.Diagnosability()
	for _, b := range syndrome.AllBehaviors(99) {
		for f := delta; f <= delta+4; f++ {
			for trial := int64(0); trial < 4; trial++ {
				F := syndrome.RandomFaults(nw.Graph().N(), f, rand.New(rand.NewSource(1000+trial)))
				s1 := syndrome.NewLazy(F, b)
				f1, st1, err1 := DiagnoseOpts(nw, s1, Options{})
				s2 := syndrome.NewLazy(F, b)
				f2, st2, err2 := eng.Diagnose(s2)

				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s f=%d trial %d: error mismatch: %v vs %v", b.Name(), f, trial, err1, err2)
				}
				if s1.Lookups() != s2.Lookups() {
					t.Fatalf("%s f=%d trial %d: lookups differ: %d vs %d", b.Name(), f, trial, s1.Lookups(), s2.Lookups())
				}
				if err1 != nil {
					continue
				}
				if !f1.Equal(f2) {
					t.Fatalf("%s f=%d trial %d: fault sets differ", b.Name(), f, trial)
				}
				if *st1 != *st2 {
					t.Fatalf("%s f=%d trial %d: stats differ:\nfree   %+v\nengine %+v", b.Name(), f, trial, st1, st2)
				}
			}
		}
	}
}

// TestEngineDiagnoseWarmZeroAllocs pins the tentpole's allocation
// contract: a warm Engine.Diagnose with a bound scratch — no
// caller-supplied Parts needed, unlike the free-function path — runs at
// zero allocations per op.
func TestEngineDiagnoseWarmZeroAllocs(t *testing.T) {
	nw := topology.NewHypercube(10)
	eng := NewEngine(nw)
	F := syndrome.RandomFaults(nw.Graph().N(), nw.Diagnosability(), rand.New(rand.NewSource(2)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	sc := eng.AcquireScratch()
	defer eng.ReleaseScratch(sc)
	opt := Options{Scratch: sc}
	// Warm run (grows frontier buffers, allocates the lazy fset).
	if _, _, err := eng.DiagnoseOpts(s, opt); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(20, func() {
		got, _, err := eng.DiagnoseOpts(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(F) {
			t.Fatal("misdiagnosis")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Engine.Diagnose with bound scratch allocated %.1f objects/op, want 0", allocs)
	}
}

// TestDiagnoseBatchMatchesSequentialLoop is the batch-equivalence
// regression: DiagnoseBatch and a sequential Diagnose loop must produce
// identical fault sets and identical TotalLookups for every syndrome,
// and results[i] must correspond to syndromes[i].
func TestDiagnoseBatchMatchesSequentialLoop(t *testing.T) {
	nw := topology.NewHypercube(9)
	eng := NewEngine(nw)
	delta := nw.Diagnosability()
	const k = 24

	loopSyn := make([]*syndrome.Lazy, k)
	batchSyn := make([]syndrome.Syndrome, k)
	want := make([]BatchResult, k)
	for i := 0; i < k; i++ {
		// Mixed severities: some trials past δ so errors flow through too.
		f := delta + i%3 - 1
		F := syndrome.RandomFaults(nw.Graph().N(), f, rand.New(rand.NewSource(int64(i))))
		loopSyn[i] = syndrome.NewLazy(F, syndrome.Mimic{})
		batchSyn[i] = syndrome.NewLazy(F, syndrome.Mimic{})
		got, st, err := Diagnose(nw, loopSyn[i])
		want[i] = BatchResult{Faults: got, Err: err}
		if st != nil {
			want[i].Stats = *st
		}
	}

	for _, workers := range []int{1, 4} {
		results := eng.DiagnoseBatch(batchSyn, BatchOptions{Workers: workers})
		if len(results) != k {
			t.Fatalf("workers=%d: %d results for %d syndromes", workers, len(results), k)
		}
		for i, r := range results {
			if (r.Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d syndrome %d: error mismatch: %v vs %v", workers, i, r.Err, want[i].Err)
			}
			if r.Err != nil {
				continue
			}
			if !r.Faults.Equal(want[i].Faults) {
				t.Fatalf("workers=%d syndrome %d: fault sets differ", workers, i)
			}
			if r.Stats.TotalLookups != want[i].Stats.TotalLookups {
				t.Fatalf("workers=%d syndrome %d: TotalLookups %d (batch) vs %d (loop)",
					workers, i, r.Stats.TotalLookups, want[i].Stats.TotalLookups)
			}
			if r.Stats != want[i].Stats {
				t.Fatalf("workers=%d syndrome %d: stats differ:\nbatch %+v\nloop  %+v",
					workers, i, r.Stats, want[i].Stats)
			}
		}
	}
	// The batch drove each syndrome exactly once: its counter must agree
	// with the loop twin's.
	for i := range batchSyn {
		// Batch ran twice (workers 1 and 4), the loop once.
		if got, want := batchSyn[i].(*syndrome.Lazy).Lookups(), 2*loopSyn[i].Lookups(); got != want {
			t.Fatalf("syndrome %d: batch lookup counter %d, want %d", i, got, want)
		}
	}
}

// TestEngineFaultBound checks the tightened-partition cache: a bounded
// engine call matches the free function's bounded call exactly.
func TestEngineFaultBound(t *testing.T) {
	nw := topology.NewHypercube(10)
	eng := NewEngine(nw)
	for trial := int64(0); trial < 3; trial++ {
		F := syndrome.RandomFaults(nw.Graph().N(), 3, rand.New(rand.NewSource(trial)))
		s1 := syndrome.NewLazy(F, syndrome.Mimic{})
		f1, st1, err1 := DiagnoseOpts(nw, s1, Options{FaultBound: 3})
		s2 := syndrome.NewLazy(F, syndrome.Mimic{})
		f2, st2, err2 := eng.DiagnoseOpts(s2, Options{FaultBound: 3})
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if !f1.Equal(f2) || *st1 != *st2 || s1.Lookups() != s2.Lookups() {
			t.Fatalf("trial %d: bounded engine diverged from free function", trial)
		}
	}

	// Infeasible tightened bounds must fail identically too: parts of
	// size 2 cannot have induced minimum degree 2, so FaultBound 1 has
	// no partition and both paths must say so rather than silently
	// substituting the δ partition.
	F := syndrome.RandomFaults(nw.Graph().N(), 1, rand.New(rand.NewSource(9)))
	_, _, errFree := DiagnoseOpts(nw, syndrome.NewLazy(F, syndrome.Mimic{}), Options{FaultBound: 1})
	_, _, errEng := eng.DiagnoseOpts(syndrome.NewLazy(F, syndrome.Mimic{}), Options{FaultBound: 1})
	if (errFree == nil) != (errEng == nil) {
		t.Fatalf("infeasible bound: error mismatch: free %v vs engine %v", errFree, errEng)
	}
}

// TestEnginePartsErr pins the gap-G3 contract: binding to a network
// with no Theorem 1 partition records the error once and every
// diagnosis returns it typed.
func TestEnginePartsErr(t *testing.T) {
	nk := topology.NewNKStar(6, 2) // N = 30 < (δ+1)²: no partition
	eng := NewEngine(nk)
	if eng.PartsErr() == nil {
		t.Fatal("expected a partition error for S(6,2)")
	}
	F := syndrome.RandomFaults(nk.Graph().N(), 2, rand.New(rand.NewSource(1)))
	_, _, err := eng.Diagnose(syndrome.NewLazy(F, syndrome.Mimic{}))
	if err == nil {
		t.Fatal("expected Diagnose to fail on a partition-less engine")
	}
}

// TestConcurrentDiagnoseBatchSharedEngine hammers one engine from
// several concurrent DiagnoseBatch calls, each with its own syndromes —
// the serving-path shape. Meaningful mainly under -race: the partition,
// the tightened-partition cache and the scratch pool are shared.
func TestConcurrentDiagnoseBatchSharedEngine(t *testing.T) {
	setGOMAXPROCS(t, 4)
	nw := topology.NewHypercube(8)
	eng := NewEngine(nw)
	delta := nw.Diagnosability()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Alternate FaultBound to race the tightened-partition cache;
			// bounded calls get fault sets that respect the bound.
			opt := BatchOptions{Workers: 3}
			nFaults := delta
			if seed%2 == 1 {
				opt.Options.FaultBound = delta - 1
				nFaults = delta - 1
			}
			syns := make([]syndrome.Syndrome, 8)
			for i := range syns {
				F := syndrome.RandomFaults(nw.Graph().N(), nFaults, rand.New(rand.NewSource(seed*100+int64(i))))
				syns[i] = syndrome.NewLazy(F, syndrome.Mimic{})
			}
			for _, r := range eng.DiagnoseBatch(syns, opt) {
				if r.Err != nil {
					t.Error(r.Err)
					return
				}
				if r.Faults.Count() > delta {
					t.Error("fault set exceeds bound")
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
}

// panicBehavior is a faulty tester whose every answer panics.
type panicBehavior struct{ v *int }

func (b panicBehavior) Result(u, v, w int32, truth int) int { panic(b.v) }
func (panicBehavior) Name() string                          { return "panic" }

// TestDefaultPoolPanicIsolation drives DiagnoseBatch on the default
// pool with one syndrome whose faulty tester panics, at 1, 2 and 3
// workers: the caller must recover the original panic value, every
// worker goroutine must be gone, and the engine must serve the next
// batch exactly.
func TestDefaultPoolPanicIsolation(t *testing.T) {
	setGOMAXPROCS(t, 3)
	nw := topology.NewHypercube(8)
	eng := NewEngine(nw)
	rng := rand.New(rand.NewSource(5))
	parts, err := eng.Parts()
	if err != nil {
		t.Fatal(err)
	}
	sentinel := new(int)
	for workers := 1; workers <= 3; workers++ {
		base := runtime.NumGoroutine()
		batch := make([]syndrome.Syndrome, 24)
		for i := range batch {
			batch[i] = syndrome.NewLazy(syndrome.RandomFaults(nw.Graph().N(), rng.Intn(nw.Diagnosability()+1), rng), syndrome.Mimic{})
		}
		// The first candidate part's seed is the first tester a
		// certification consults, so a fault there is always asked.
		seedFault := bitset.New(nw.Graph().N())
		seedFault.Add(int(parts[0].Seed))
		batch[7] = syndrome.NewLazy(seedFault, panicBehavior{sentinel})
		got := func() (v any) {
			defer func() { v = recover() }()
			eng.DiagnoseBatch(batch, BatchOptions{Workers: workers})
			return nil
		}()
		if p, ok := got.(*int); !ok || p != sentinel {
			t.Fatalf("%d workers: caller recovered %v, want the behaviour's panic value", workers, got)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d workers: %d goroutines after the panic, %d before", workers, n, base)
		}
		faults := make([]*bitset.Set, 8)
		batch = batch[:len(faults)]
		for i := range batch {
			faults[i] = syndrome.RandomFaults(nw.Graph().N(), rng.Intn(nw.Diagnosability()+1), rng)
			batch[i] = syndrome.NewLazy(faults[i], syndrome.Mimic{})
		}
		for i, r := range eng.DiagnoseBatch(batch, BatchOptions{Workers: workers}) {
			if r.Err != nil || !r.Faults.Equal(faults[i]) {
				t.Fatalf("%d workers: batch after the panic diagnosed %v (%v), want %v", workers, r.Faults, r.Err, faults[i])
			}
		}
	}
}
