package campaign

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
)

// Runtime is the persistent serving pool for batch diagnosis work: a
// fixed set of long-lived workers bound to one core.Engine, each owning
// a pinned engine scratch and a private PRNG for its whole lifetime.
// Work arrives as jobs of independent trials indexed 0..n-1 and is
// dealt out in chunks from an atomic cursor, so a runtime serves many
// campaigns, CLI batches and replay drivers back to back without ever
// re-spawning goroutines, re-acquiring scratches or re-allocating
// PRNGs — the per-sweep-point pool construction the transient drivers
// paid disappears.
//
// Determinism contract: a job's trial function must derive everything
// from its trial index (reseeding the worker PRNG per trial, as Sweep
// does), never from the worker identity or the order of execution.
// Chunks are claimed dynamically, so which worker runs a trial is
// scheduling-dependent — but under the contract the results are
// bit-identical to a sequential loop over the same indices.
//
// A Runtime also implements core.BatchPool, so it can be plugged into
// Engine.DiagnoseBatch (see DiagnoseBatch below) and batch-aware
// certification runs on persistent workers too.
type Runtime struct {
	eng     *core.Engine
	workers int
	jobs    chan *runtimeJob

	wg    sync.WaitGroup
	close sync.Once

	trials []atomic.Int64 // per-worker trial counts
	jobCnt atomic.Int64
}

// runtimeJob is one Run call: a chunked trial queue shared by every
// participating worker.
type runtimeJob struct {
	n     int
	chunk int
	next  atomic.Int64
	fn    func(w *Worker, trial int)
	wg    sync.WaitGroup
}

// Worker is the per-goroutine state a Runtime pins for its lifetime
// and hands to every trial function it executes.
type Worker struct {
	// ID is the worker's index in [0, Workers()).
	ID int
	// Scratch is the worker's dedicated engine scratch (drawn from the
	// runtime engine's pool): pass it via core.Options.Scratch and the
	// steady-state trial loop performs no heap allocation beyond the
	// trial's own inputs.
	Scratch *core.Scratch
	// RNG is the worker's private PRNG. Reseed it per trial from the
	// trial index (see Sweep) to keep results independent of worker
	// scheduling.
	RNG *rand.Rand
}

// NewRuntime starts a persistent pool of workers bound to the engine.
// workers ≤ 0 means GOMAXPROCS; requests above it are clamped (see
// core.ClampWorkers). Callers own the runtime's lifecycle: Close it
// when the serving session ends to release the pinned scratches.
func NewRuntime(eng *core.Engine, workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = core.ClampWorkers(workers)
	rt := &Runtime{
		eng:     eng,
		workers: workers,
		jobs:    make(chan *runtimeJob),
		trials:  make([]atomic.Int64, workers),
	}
	for w := 0; w < workers; w++ {
		rt.wg.Add(1)
		go rt.worker(w)
	}
	return rt
}

// Engine returns the engine the runtime serves.
func (rt *Runtime) Engine() *core.Engine { return rt.eng }

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return rt.workers }

// worker is the persistent loop: acquire a scratch and a PRNG once,
// then serve chunked jobs until Close.
func (rt *Runtime) worker(id int) {
	defer rt.wg.Done()
	w := &Worker{ID: id, Scratch: rt.eng.AcquireScratch(), RNG: rand.New(rand.NewSource(0))}
	defer rt.eng.ReleaseScratch(w.Scratch)
	for jb := range rt.jobs {
		served := int64(0)
		for {
			lo := int(jb.next.Add(int64(jb.chunk))) - jb.chunk
			if lo >= jb.n {
				break
			}
			hi := lo + jb.chunk
			if hi > jb.n {
				hi = jb.n
			}
			for i := lo; i < hi; i++ {
				jb.fn(w, i)
			}
			served += int64(hi - lo)
		}
		rt.trials[id].Add(served)
		jb.wg.Done()
	}
}

// Run executes fn(w, i) exactly once for every trial index in [0, n),
// distributed across the pool in chunks, and returns when all trials
// completed. Concurrent Run calls are safe (each job carries its own
// cursor); Run must not be called after Close.
func (rt *Runtime) Run(n int, fn func(w *Worker, trial int)) {
	if n <= 0 {
		return
	}
	// A handful of chunks per worker balances load (trial costs vary a
	// little) while keeping cursor traffic negligible.
	chunk := n / (rt.workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	jb := &runtimeJob{n: n, chunk: chunk, fn: fn}
	participants := rt.workers
	if participants > n {
		participants = n
	}
	jb.wg.Add(participants)
	for i := 0; i < participants; i++ {
		rt.jobs <- jb
	}
	jb.wg.Wait()
	rt.jobCnt.Add(1)
}

// RunScratch implements core.BatchPool, letting Engine.DiagnoseBatch
// (and its batch-aware certification phases) execute on the persistent
// pool instead of transient per-call goroutines.
func (rt *Runtime) RunScratch(n int, fn func(sc *core.Scratch, i int)) {
	rt.Run(n, func(w *Worker, i int) { fn(w.Scratch, i) })
}

// DiagnoseBatch runs the engine's batch diagnosis on the runtime's
// pool: identical semantics to Engine.DiagnoseBatch (results[i] matches
// syndromes[i], per-syndrome outcomes bit-identical to sequential
// calls), with opt.Pool and opt.Workers superseded by the runtime.
func (rt *Runtime) DiagnoseBatch(syndromes []syndrome.Syndrome, opt core.BatchOptions) []core.BatchResult {
	opt.Pool = rt
	return rt.eng.DiagnoseBatch(syndromes, opt)
}

// Close drains the pool: workers finish their current job, release
// their scratches and exit. Close is idempotent; Run must not be
// called afterwards.
func (rt *Runtime) Close() {
	rt.close.Do(func() {
		close(rt.jobs)
		rt.wg.Wait()
	})
}

// RuntimeStats is an observability snapshot of a Runtime.
type RuntimeStats struct {
	// Workers is the pool size.
	Workers int
	// Jobs is the number of completed Run calls.
	Jobs int64
	// Trials[w] counts the trials worker w has executed — the dealt
	// work distribution, useful for spotting skew.
	Trials []int64
}

// Occupancy returns the fraction of workers that have executed at
// least one trial — the exporter's worker-occupancy gauge. 0 for an
// idle or empty pool (never NaN).
func (s RuntimeStats) Occupancy() float64 {
	if len(s.Trials) == 0 {
		return 0
	}
	busy := 0
	for _, n := range s.Trials {
		if n > 0 {
			busy++
		}
	}
	return float64(busy) / float64(len(s.Trials))
}

// TotalTrials sums the per-worker counts.
func (s RuntimeStats) TotalTrials() int64 {
	var t int64
	for _, n := range s.Trials {
		t += n
	}
	return t
}

// Stats snapshots the runtime's counters. Counts for a job are merged
// when the job completes, so a concurrent snapshot may lag an in-flight
// Run.
func (rt *Runtime) Stats() RuntimeStats {
	s := RuntimeStats{Workers: rt.workers, Jobs: rt.jobCnt.Load(), Trials: make([]int64, rt.workers)}
	for w := range rt.trials {
		s.Trials[w] = rt.trials[w].Load()
	}
	return s
}
