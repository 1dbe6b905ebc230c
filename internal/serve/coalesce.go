package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
)

// ErrClosing is returned by Submit while the server (or one engine
// entry) is shutting down: requests already accepted are flushed and
// answered, new ones are refused.
var ErrClosing = errors.New("serve: shutting down")

// errBatchPanic answers every waiter of a batch whose diagnosis
// panicked: the server's fault, not a verdict about the hypothesis.
var errBatchPanic = errors.New("serve: diagnosis panicked")

// Outcome is one request's diagnosis as delivered by the coalescer.
type Outcome struct {
	// Faults is read-only and may be shared with every other waiter of
	// the same deduplicated request.
	Faults *bitset.Set
	Stats  core.Stats
	Err    error
	// BatchWidth is the number of distinct syndromes in the
	// DiagnoseBatch call that produced this outcome (1 = solo).
	BatchWidth int
	// Waiters is the number of identical concurrent requests this
	// outcome was fanned out to (≥ 1).
	Waiters int
}

// request is one distinct pending diagnosis; identical concurrent
// submissions append their channel instead of a second syndrome (the
// grouped batch path requires the syndromes of a batch to be distinct
// objects, and one diagnosis answers them all anyway).
type request struct {
	syn   *syndrome.Lazy
	bound int
	out   []chan Outcome
}

// coalescer batches the concurrent diagnose requests of one engine:
// the first request of a quiet window arms a timer; until it fires —
// or maxBatch distinct requests accumulate, whichever is first — later
// requests pile into the same pending set, and the flush runs them as
// one grouped Engine.DiagnoseBatch call. Requests sharing a fault
// hypothesis land in one group (ShareHypotheses): they share one part
// certification and inherit the behaviour-independent final prefix,
// so the per-batch look-up bill shrinks the more the traffic overlaps;
// answers are bit-identical to solo Diagnose calls by the DiagnoseBatch
// contract. Batches mixing fault bounds are split per bound, since
// Options.FaultBound is batch-wide.
type coalescer struct {
	eng      *core.Engine
	pool     core.BatchPool
	cache    *core.ResultCache
	window   time.Duration // ≤ 0 flushes every submission immediately
	maxBatch int
	met      *metrics

	mu      sync.Mutex
	pending map[string]*request
	order   []*request // insertion order, the flush order
	timer   *time.Timer
	closed  bool
	flights sync.WaitGroup // in-progress flushes
}

func newCoalescer(eng *core.Engine, pool core.BatchPool, cache *core.ResultCache, window time.Duration, maxBatch int, met *metrics) *coalescer {
	return &coalescer{
		eng: eng, pool: pool, cache: cache,
		window: window, maxBatch: maxBatch,
		met:     met,
		pending: make(map[string]*request),
	}
}

// Submit enqueues one diagnosis. key identifies the request up to
// bit-identical outcome (hypothesis + behaviour + bound); identical
// concurrent requests share one diagnosis. The returned channel
// (buffered, capacity 1) delivers exactly one Outcome once the batch
// flushes — within the coalescing window, or immediately on shutdown.
func (c *coalescer) Submit(key string, faults *bitset.Set, behavior syndrome.Behavior, bound int) (<-chan Outcome, error) {
	ch := make(chan Outcome, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosing
	}
	if r, ok := c.pending[key]; ok {
		r.out = append(r.out, ch)
		c.met.dedup.Add(1)
		c.mu.Unlock()
		return ch, nil
	}
	r := &request{syn: syndrome.NewLazy(faults, behavior), bound: bound, out: []chan Outcome{ch}}
	c.pending[key] = r
	c.order = append(c.order, r)
	switch {
	case c.window <= 0 || len(c.order) >= c.maxBatch:
		// Flush in the caller's goroutine: it is about to block on ch
		// anyway, and a synchronous flush keeps the full-batch path
		// deterministic (exactly one batch per maxBatch submissions).
		batch := c.take()
		c.flights.Add(1)
		c.mu.Unlock()
		c.flush(batch)
	case len(c.order) == 1:
		c.timer = time.AfterFunc(c.window, c.timedFlush)
		c.mu.Unlock()
	default:
		c.mu.Unlock()
	}
	return ch, nil
}

// pendingCount reports how many requests are waiting in the window.
func (c *coalescer) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.order {
		n += len(r.out)
	}
	return n
}

// take claims the pending set for a flush. Caller holds mu.
func (c *coalescer) take() []*request {
	batch := c.order
	c.order = nil
	c.pending = make(map[string]*request)
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// timedFlush is the window-expiry path.
func (c *coalescer) timedFlush() {
	c.mu.Lock()
	if len(c.order) == 0 {
		c.mu.Unlock()
		return
	}
	batch := c.take()
	c.flights.Add(1)
	c.mu.Unlock()
	c.flush(batch)
}

// flush diagnoses one claimed batch and fans the outcomes out. Batches
// mixing fault bounds split into one DiagnoseBatch call per bound
// (ascending, for determinism) because Options.FaultBound applies to a
// whole batch.
func (c *coalescer) flush(batch []*request) {
	defer c.flights.Done()
	if len(batch) == 0 {
		return
	}
	byBound := make(map[int][]*request)
	var bounds []int
	for _, r := range batch {
		if _, ok := byBound[r.bound]; !ok {
			bounds = append(bounds, r.bound)
		}
		byBound[r.bound] = append(byBound[r.bound], r)
	}
	sort.Ints(bounds)
	for _, bound := range bounds {
		c.flushBound(bound, byBound[bound])
	}
}

func (c *coalescer) flushBound(bound int, reqs []*request) {
	syns := make([]syndrome.Syndrome, len(reqs))
	for i, r := range reqs {
		syns[i] = r.syn
	}
	results := c.diagnoseBatch(syns, bound)
	width := len(reqs)
	// Count the batch before answering anyone, so a client holding its
	// answer always finds its look-ups in the counters.
	var lookups, shared int64
	for i, r := range reqs {
		lookups += r.syn.Lookups()
		shared += results[i].Stats.SharedFinalLookups
	}
	c.met.noteBatch(width, lookups, shared)
	for i, r := range reqs {
		res := results[i]
		out := Outcome{
			Faults: res.Faults, Stats: res.Stats, Err: res.Err,
			BatchWidth: width, Waiters: len(r.out),
		}
		for _, ch := range r.out {
			ch <- out
		}
	}
}

// diagnoseBatch runs one sub-batch. A panic anywhere in it — the
// engine, the pool, a behaviour — is recovered here and becomes an
// errBatchPanic outcome for every syndrome, so the batch's waiters are
// answered instead of stranded and the flush still completes.
func (c *coalescer) diagnoseBatch(syns []syndrome.Syndrome, bound int) (results []core.BatchResult) {
	defer func() {
		if v := recover(); v != nil {
			err := fmt.Errorf("%w: %v", errBatchPanic, v)
			results = make([]core.BatchResult, len(syns))
			for i := range results {
				results[i].Err = err
			}
		}
	}()
	return c.eng.DiagnoseBatch(syns, core.BatchOptions{
		ShareHypotheses: true,
		Pool:            c.pool,
		Options:         core.Options{FaultBound: bound, ResultCache: c.cache},
	})
}

// close drains the coalescer: later Submits refuse with ErrClosing,
// the pending window flushes immediately so every accepted request
// still receives its Outcome, and in-flight flushes complete before
// close returns. Idempotent.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.flights.Wait()
		return
	}
	c.closed = true
	batch := c.take()
	c.flights.Add(1)
	c.mu.Unlock()
	c.flush(batch)
	c.flights.Wait()
}
