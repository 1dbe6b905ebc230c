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
// fixed set of long-lived workers bound to one core.Engine. Work
// arrives as jobs of independent trials indexed 0..n-1 and is dealt out
// in chunks from an atomic cursor, so a runtime serves many campaigns,
// CLI batches and replay drivers back to back without ever re-spawning
// goroutines — the per-sweep-point pool construction the transient
// drivers paid disappears. A worker's private PRNG is created by its
// first sweep trial (Worker.Rand) and kept from then on; a runtime
// that only diagnoses batches never seeds one.
//
// Scratch is borrowed per job, the same rule the engine's transient
// batch pool follows: a worker takes one from the engine pool
// (core.Engine.AcquireScratch) when it joins a job and returns it when
// its share of the job ends. Within a job the trial loop allocates
// nothing, and back-to-back jobs find their scratches warm in the
// engine's sync.Pool; an idle runtime holds none, so the GC can reclaim
// the dense per-node arrays of an engine nobody is diagnosing on.
//
// A trial that panics does not kill its worker: the panic is recovered
// on the worker, the job is abandoned (no further trials start), and
// Run re-panics in its caller with the original value. The runtime
// then serves later jobs as before.
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

	// panicked holds the first trial panic's value, stored before the
	// recovering worker's wg.Done, for Run to re-raise after wg.Wait.
	panicked atomic.Pointer[any]
}

// Worker is the per-goroutine state a Runtime hands to every trial
// function it executes.
type Worker struct {
	// ID is the worker's index in [0, Workers()).
	ID int
	// Scratch is the engine scratch the worker borrowed for the current
	// job (from the runtime engine's pool): pass it via
	// core.Options.Scratch and the trial loop performs no heap
	// allocation beyond the trial's own inputs. It belongs to the job —
	// trial functions must not retain it — and is nil between jobs.
	Scratch *core.Scratch
	// rng is the worker's private PRNG: nil until a trial first asks
	// for it through Rand, then kept for the worker's lifetime.
	rng *rand.Rand
}

// Rand returns the worker's PRNG reseeded with seed, creating it on
// first use. Reseeding per trial from the trial index (see Sweep)
// keeps results independent of worker scheduling, and reproduces
// exactly the stream a fresh rand.NewSource(seed) would give.
func (w *Worker) Rand(seed int64) *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed)
	}
	return w.rng
}

// NewRuntime starts a persistent pool of workers bound to the engine.
// workers ≤ 0 means GOMAXPROCS; requests above it are clamped (see
// core.ClampWorkers). Callers own the runtime's lifecycle: Close it
// when the serving session ends to stop the workers.
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

// worker is the persistent loop: serve chunked jobs until Close.
func (rt *Runtime) worker(id int) {
	defer rt.wg.Done()
	w := &Worker{ID: id}
	for jb := range rt.jobs {
		rt.serve(w, jb)
	}
}

// serve runs the worker's share of one job on a scratch borrowed for
// it. A trial panic is recovered here and recorded for Run; the
// scratch it interrupted is dropped rather than pooled, since its part
// mask and checkpoint plumbing may be mid-update.
func (rt *Runtime) serve(w *Worker, jb *runtimeJob) {
	w.Scratch = rt.eng.AcquireScratch()
	served := int64(0)
	defer func() {
		if v := recover(); v != nil {
			jb.panicked.CompareAndSwap(nil, &v)
			jb.next.Store(int64(jb.n)) // abandon the job's unclaimed trials
		} else {
			rt.eng.ReleaseScratch(w.Scratch)
		}
		w.Scratch = nil
		rt.trials[w.ID].Add(served)
		jb.wg.Done()
	}()
	for {
		lo := int(jb.next.Add(int64(jb.chunk))) - jb.chunk
		if lo >= jb.n {
			return
		}
		hi := min(lo+jb.chunk, jb.n)
		for i := lo; i < hi; i++ {
			jb.fn(w, i)
		}
		served += int64(hi - lo)
	}
}

// Run executes fn(w, i) exactly once for every trial index in [0, n),
// distributed across the pool in chunks, and returns when all trials
// completed. Concurrent Run calls are safe (each job carries its own
// cursor); Run must not be called after Close. If a trial panics, the
// trials not yet started are skipped and Run panics with the trial's
// panic value once every worker has left the job.
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
	if v := jb.panicked.Load(); v != nil {
		panic(*v)
	}
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

// Close drains the pool: workers finish their current job and exit.
// Close is idempotent; Run must not be called afterwards.
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
