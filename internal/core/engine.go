package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Engine is a diagnosis handle bound once to a network: it precomputes
// and owns everything syndrome-independent — the Theorem 1 partition
// (plus tightened partitions per FaultBound, built lazily), the part
// candidate order, and a pool of correctly sized Scratches — so that
// serving many syndromes against one fixed network pays the setup cost
// once instead of per call.
//
// The free functions (Diagnose, DiagnoseOpts, DiagnoseGraph) remain the
// paper-literal reference path and rebuild that state per call; the
// Engine is the serving path. Both produce identical fault sets, stats
// and syndrome look-up counts for the same inputs: the engine's
// specialised final Set_Builder pass (see setBuilderLazyInto) consults
// exactly the same test prefix per node as the reference loop.
//
// An Engine is safe for concurrent use: Diagnose and DiagnoseBatch may
// be called from many goroutines at once, as long as each individual
// Syndrome still follows its own concurrency contract (a *syndrome.Lazy
// belongs to one call at a time; see syndrome.Syndrome).
//
// An Engine is also churn-tolerant: all rebindable state lives in one
// immutable binding snapshot behind an atomic pointer, and Rebind swaps
// it for a degraded binding derived from a graph.Removal. Every call
// loads exactly one snapshot up front, so diagnoses racing a Rebind see
// either the old world or the new one, never a mixture.
type Engine struct {
	name string
	bnd  atomic.Pointer[binding]

	// mu serialises Rebind/BindCayley against each other and guards the
	// lazily built tightened-partition maps of whichever binding is
	// being extended.
	mu sync.Mutex

	pool sync.Pool // *Scratch sized for the current binding's graph
}

// binding is the engine's rebindable state: everything derived from the
// (current) graph. All fields are immutable after publication except the
// tight/tightErr maps, which grow lazily under Engine.mu.
type binding struct {
	nw    topology.Network // nil for graph-bound and implicit engines
	g     *graph.Graph     // nil for implicit (descriptor-backed) engines
	adj   graph.Adjacencer // the served adjacency: g, or an implicit generator
	delta int

	// baseDelta is the δ of the original bind; connBudget is the
	// engine's remaining connectivity lower-bound budget (κ at bind
	// time, decremented by every removal — see deriveBinding).
	baseDelta  int
	connBudget int

	parts    []topology.Part // default partition for delta; nil iff partsErr != nil
	partsErr error

	// kernel is the specialised final-pass kernel bound from the
	// network's declared Cayley structure (or from-scratch detection);
	// nil routes the final pass through the generic adaptive kernel.
	// desc is the verified descriptor the kernel was bound from, kept so
	// a rebind can re-verify it against the surviving component.
	kernel finalKernel
	desc   graph.CayleyDescriptor

	// degraded marks a binding produced by churn (Rebind/Survivor):
	// diagnoses are stamped Stats.Degraded with EffectiveDelta = delta.
	// A growth rebind that restores the full pre-churn structure clears
	// it again (unless the anchor itself was degraded).
	degraded bool

	// prev anchors the recovery direction: for a removal-derived binding
	// it is the binding the removal was applied to, and growth-derived
	// bindings inherit it unchanged — so prev always holds the world a
	// graph.Growth's OldToNew map speaks about (its parts are what
	// RegrowParts regrows toward). nil for bindings never churned.
	prev *binding

	// epoch counts rebinds. ResultCache entries are keyed on it, so an
	// in-flight diagnosis racing a Rebind can never publish a pre-churn
	// result where a post-churn lookup would find it.
	epoch uint64

	tight    map[int][]topology.Part // FaultBound-tightened partitions
	tightErr map[int]error
}

// NewEngine binds an engine to the network, eagerly building the
// default partition for δ = nw.Diagnosability(). Construction never
// fails: on gap-G3 instances with no Theorem 1 partition the error is
// recorded and returned by PartsErr and by every Diagnose call, so
// callers can route to DiagnoseWithVerification once instead of
// handling errors per syndrome.
func NewEngine(nw topology.Network) *Engine {
	b := &binding{
		nw:         nw,
		g:          nw.Graph(),
		delta:      nw.Diagnosability(),
		connBudget: nw.Connectivity(),
	}
	b.adj = b.g
	b.baseDelta = b.delta
	b.parts, b.partsErr = nw.Parts(b.delta+1, b.delta+1)
	b.kernel, b.desc = bindStructure(nw, b.g)
	e := &Engine{name: nw.Name()}
	e.bnd.Store(b)
	return e
}

// bindStructure resolves the engine's final-pass kernel at bind time:
// a declared descriptor first (validated against the CSR adjacency by
// graph.VerifyCayley, so a buggy declaration degrades to the generic
// kernel instead of corrupting results), then the from-scratch XOR
// probe for networks that declare nothing. Both paths are O(m) and run
// once per engine. The verified descriptor is returned alongside the
// kernel so a later Rebind can re-verify it on the surviving component.
func bindStructure(nw topology.Network, g *graph.Graph) (finalKernel, graph.CayleyDescriptor) {
	if cs, ok := nw.(topology.CayleyStructured); ok {
		if desc := cs.CayleyStructure(); desc != nil && graph.VerifyCayley(g, desc) == nil {
			// A verified declaration is the whole truth about the
			// adjacency; when no kernel covers it (e.g. below the
			// 64-node floor), re-probing from scratch could only
			// rediscover the same structure.
			return bindFinalKernel(desc, g), desc
		}
	}
	if desc, ok := graph.DetectXORCayley(g); ok {
		return bindFinalKernel(desc, g), desc
	}
	return nil, nil
}

// kernelName is the observability tag for a (possibly nil) kernel.
func kernelName(k finalKernel) string {
	if k == nil {
		return "generic"
	}
	return k.Name()
}

// KernelName reports the bound final-pass kernel — "xor-cayley",
// "xor-cayley[multi-bit]", "additive-rotate",
// "additive-rotate[mixed-radix]", or "generic" when no structure
// bound. Observability only: all kernels are defined to be result- and
// look-up-identical.
func (e *Engine) KernelName() string { return kernelName(e.bnd.Load().kernel) }

// BindCayley routes the final pass of a graph-bound engine through a
// structure kernel: the descriptor is first verified against the
// engine's graph (an untrusted or stale descriptor is rejected with an
// error and changes nothing), then offered to the kernel registry. A
// nil return with KernelName() still "generic" means the descriptor was
// genuine but no kernel covers it (e.g. below the 64-node word floor).
// The binding swap is atomic (diagnoses racing the call see the old or
// the new kernel, both correct), but callers should still bind before
// the engine starts serving.
func (e *Engine) BindCayley(desc graph.CayleyDescriptor) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.bnd.Load()
	if b.g == nil {
		return errors.New("core: implicit engine already is its descriptor binding; BindCayley needs a CSR-bound engine")
	}
	if err := graph.VerifyCayley(b.g, desc); err != nil {
		return err
	}
	nb := *b
	nb.kernel = bindFinalKernel(desc, b.g)
	nb.desc = desc
	e.bnd.Store(&nb)
	return nil
}

// NewGraphEngine binds an engine to an explicit graph, fault bound and
// partition — the DiagnoseGraph analogue for callers that construct
// their own topology. The parts must satisfy the Theorem 1
// preconditions for delta (see topology.ValidatePartition). Binding is
// O(1): unlike NewEngine, no adjacency-structure detection runs, so a
// graph-bound engine starts on the generic final-pass kernel; callers
// that know their graph's algebraic structure can opt in afterwards
// with BindCayley, which verifies the claim before trusting it.
func NewGraphEngine(g *graph.Graph, delta int, parts []topology.Part) *Engine {
	e := &Engine{name: "graph"}
	e.bnd.Store(&binding{g: g, adj: g, delta: delta, baseDelta: delta, connBudget: delta, parts: parts})
	return e
}

// NewCayleyEngine binds an engine directly from a Cayley descriptor —
// the implicit-adjacency mode: no CSR is ever materialised, neighbours
// are generated algebraically on demand (graph.CayleyAdjacency), and
// the Theorem 1 partition is computed from the descriptor's coset
// structure (topology.CayleyParts) instead of an edge scan. Memory is
// O(descriptor) plus the diagnosis scratch, independent of edge count —
// a Q20 hypercube binds in kilobytes where the CSR's targets array
// alone is ~80 MB — and results and syndrome look-up counts are
// bit-identical to a CSR-bound engine on the same graph.
//
// delta is the fault bound δ served, which for the declared families is
// the graph's connectivity (e.g. n for Q_n). The descriptor is shape-
// validated (graph.NewCayleyAdjacency); a malformed descriptor returns
// an error. A coset partition that cannot be derived for the requested
// bound is recorded exactly like NewEngine records a partition error —
// construction still succeeds and every Diagnose reports it.
//
// Implicit engines serve Diagnose/DiagnoseOpts/DiagnoseBatch in full
// (including FaultBound tightening, sharing, result caches, and
// Options.FinalWorkers fan-out — a bound word kernel splits its rounds
// at word granularity and keeps even the look-up count bit-identical;
// see rangedRounder). They do not support Rebind/Survivor (churn
// removal is defined against a CSR) or BindCayley (the structure is
// the binding), and Graph() returns nil.
func NewCayleyEngine(desc graph.CayleyDescriptor, delta int) (*Engine, error) {
	ca, err := graph.NewCayleyAdjacency(desc)
	if err != nil {
		return nil, err
	}
	if delta <= 0 {
		return nil, fmt.Errorf("core: implicit bind needs a positive fault bound, got %d", delta)
	}
	b := &binding{
		adj:        ca,
		delta:      delta,
		baseDelta:  delta,
		connBudget: delta,
		desc:       desc,
	}
	b.parts, b.partsErr = topology.CayleyParts(desc, delta+1, delta+1)
	b.kernel = bindFinalKernel(desc, ca)
	e := &Engine{name: desc.String()}
	e.bnd.Store(b)
	return e, nil
}

// Graph returns the bound graph (the surviving component after a
// Rebind), or nil for implicit (descriptor-backed) engines, which never
// materialise one — see Adjacency for the always-available view.
func (e *Engine) Graph() *graph.Graph { return e.bnd.Load().g }

// Adjacency returns the adjacency the engine serves: the CSR graph for
// ordinary engines, or the implicit generator (*graph.CayleyAdjacency)
// for descriptor-bound ones.
func (e *Engine) Adjacency() graph.Adjacencer { return e.bnd.Load().adj }

// Network returns the bound network, or nil for graph-bound engines.
// After a Rebind the network still identifies the original topology the
// engine was bound to, even though the served graph is its surviving
// component.
func (e *Engine) Network() topology.Network { return e.bnd.Load().nw }

// Diagnosability returns the fault bound the engine currently serves: δ
// as bound, or the degraded δ′ after a Rebind.
func (e *Engine) Diagnosability() int { return e.bnd.Load().delta }

// Degraded reports whether the engine serves a churn-degraded binding
// (it went through Rebind, or was created by Survivor). Degraded
// engines stamp Stats.Degraded/EffectiveDelta on every diagnosis.
func (e *Engine) Degraded() bool { return e.bnd.Load().degraded }

// Parts returns the precomputed default partition (or the recorded
// construction error).
func (e *Engine) Parts() ([]topology.Part, error) {
	b := e.bnd.Load()
	return b.parts, b.partsErr
}

// PartsErr reports whether the engine holds a valid Theorem 1 partition;
// non-nil means every Diagnose call will fail the same way and the
// caller should use DiagnoseWithVerification.
func (e *Engine) PartsErr() error { return e.bnd.Load().partsErr }

// partsFor returns a partition valid for the given fault bound. The
// default bound returns the bind-time partition without locking (the
// allocation-free hot path). Tighter bounds are built once per distinct
// value and cached — successes and failures alike, so the engine
// returns exactly what the free DiagnoseOpts would have (same parts or
// the same construction error), preserving the documented equivalence.
// Degraded bindings always serve their δ′ partition: the network's
// partition generator describes the pre-churn graph, and the δ′ parts
// remain valid for every tighter bound (sizes and count only need to
// reach bound+1 ≤ δ′+1).
func (e *Engine) partsFor(b *binding, bound int) ([]topology.Part, error) {
	implicit := b.nw == nil && b.g == nil && b.desc != nil
	if bound >= b.delta || (b.nw == nil && !implicit) || b.degraded {
		return b.parts, b.partsErr
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := b.tight[bound]; ok {
		return p, b.tightErr[bound]
	}
	var p []topology.Part
	var err error
	if implicit {
		p, err = topology.CayleyParts(b.desc, bound+1, bound+1)
	} else {
		p, err = b.nw.Parts(bound+1, bound+1)
	}
	if b.tight == nil {
		b.tight = make(map[int][]topology.Part)
		b.tightErr = make(map[int]error)
	}
	b.tight[bound], b.tightErr[bound] = p, err
	return p, err
}

// AcquireScratch returns a scratch sized for the engine's graph, drawn
// from the engine's own pool. Callers that diagnose in a loop (one
// worker, many syndromes) should acquire once, pass it via
// Options.Scratch, and release when done; ReleaseScratch returns it to
// the pool. Scratches survive a Rebind: they resize lazily to whichever
// graph the next call serves.
func (e *Engine) AcquireScratch() *Scratch {
	n := e.bnd.Load().adj.N()
	if v := e.pool.Get(); v != nil {
		sc := v.(*Scratch)
		sc.ensure(n)
		return sc
	}
	return NewScratch(n)
}

// ReleaseScratch returns a scratch obtained from AcquireScratch to the
// engine's pool. Results handed out against the scratch (fault set and
// Stats views) become invalid.
func (e *Engine) ReleaseScratch(sc *Scratch) { e.pool.Put(sc) }

// Diagnose solves the fault diagnosis problem for one syndrome using
// the engine's precomputed state and default Options. The returned
// fault set and Stats are caller-owned copies.
func (e *Engine) Diagnose(s syndrome.Syndrome) (*bitset.Set, *Stats, error) {
	return e.DiagnoseOpts(s, Options{})
}

// DiagnoseOpts is Diagnose with explicit Options. Semantics match the
// free DiagnoseOpts — same fault sets, same Stats, same syndrome
// look-up counts — with the per-call partition construction replaced by
// the engine's precomputed state and the final Set_Builder pass run
// through the engine's specialised kernel when the syndrome is a
// *syndrome.Lazy. With Options.Scratch set the call is allocation-free
// in steady state and the results are scratch views (see Scratch).
//
// With Options.ResultCache set, a lazy syndrome whose fault hypothesis
// and behaviour were already diagnosed under the same effective fault
// bound and strategy is served from the cache — identical results,
// zero syndrome consultations; misses populate the cache.
func (e *Engine) DiagnoseOpts(s syndrome.Syndrome, opt Options) (*bitset.Set, *Stats, error) {
	return e.diagnose(e.bnd.Load(), s, opt)
}

// diagnose runs one call against a fixed binding snapshot.
func (e *Engine) diagnose(b *binding, s syndrome.Syndrome, opt Options) (*bitset.Set, *Stats, error) {
	delta := b.delta
	if opt.FaultBound > 0 && opt.FaultBound < delta {
		delta = opt.FaultBound
	}
	var lz *syndrome.Lazy
	if opt.ResultCache != nil && opt.Parts == nil {
		// Grouped members consult the cache too, before adopting any
		// shared state: an exact repeat costs nothing, and a member's
		// outcome is memoised with its member-row Stats (CertLookups 0
		// under a shared scan, FinalLookups + SharedFinalLookups equal to
		// the solo FinalLookups) — the Stats of the run that populated
		// the entry, as for every hit.
		if l, ok := s.(*syndrome.Lazy); ok && cacheable(l) {
			lz = l
			if ent, hit := opt.ResultCache.lookup(l, delta, opt.Strategy, b.epoch); hit {
				return e.serveCached(b, ent, opt.Scratch)
			}
		}
	}
	parts := opt.Parts
	if parts == nil {
		var err error
		parts, err = e.partsFor(b, delta)
		if err != nil {
			return nil, nil, fmt.Errorf("diagnosing %s: %w", e.name, err)
		}
	}
	opt.fastFinal = true
	if !opt.GenericFinal {
		opt.kernel = b.kernel
	}
	var faults *bitset.Set
	var stats *Stats
	var err error
	if opt.Scratch != nil {
		faults, stats, err = diagnoseInto(opt.Scratch, b.adj, delta, parts, s, opt)
	} else {
		sc := e.AcquireScratch()
		sc.ensure(b.adj.N()) // the pool may hand back a scratch sized for a newer binding
		faults, stats, err = diagnoseInto(sc, b.adj, delta, parts, s, opt)
		faults, stats = cloneResults(faults, stats)
		e.ReleaseScratch(sc)
	}
	if stats != nil && b.degraded {
		stats.Degraded = true
		stats.EffectiveDelta = b.delta
	}
	if lz != nil && stats != nil {
		opt.ResultCache.insert(lz, delta, opt.Strategy, b.epoch, faults, stats, err)
	}
	return faults, stats, err
}

// serveCached copies a memoised diagnosis out of the cache: into the
// caller's scratch (preserving the Options.Scratch view contract) when
// one is supplied, as caller-owned clones otherwise. Cached state is
// never aliased.
func (e *Engine) serveCached(b *binding, ent *cacheEntry, sc *Scratch) (*bitset.Set, *Stats, error) {
	if sc != nil {
		sc.ensure(b.adj.N())
		sc.stats = ent.stats
		if ent.resFaults == nil {
			return nil, &sc.stats, ent.err
		}
		f := sc.faultsBuf()
		f.CopyFrom(ent.resFaults)
		return f, &sc.stats, ent.err
	}
	st := ent.stats
	if ent.resFaults == nil {
		return nil, &st, ent.err
	}
	return ent.resFaults.Clone(), &st, ent.err
}

// BatchPool abstracts the worker pool DiagnoseBatch distributes its
// syndromes on. RunScratch must invoke fn exactly once for every index
// in [0, n) — each invocation receiving a *Scratch that belongs to the
// executing worker for the duration of the call — and return only once
// every index has completed. The engine's default pool spawns transient
// goroutines per call; campaign.Runtime implements the interface with
// persistent workers (pinned scratches, no per-batch pool
// construction) so long-running batch clients share one runtime across
// campaigns, CLI batches and replay drivers.
type BatchPool interface {
	RunScratch(n int, fn func(sc *Scratch, i int))
}

// transientPool is the default BatchPool: goroutines spawned per call,
// each owning a pooled engine scratch, work distributed by an atomic
// cursor.
type transientPool struct {
	e       *Engine
	workers int
}

// RunScratch implements BatchPool.
func (p transientPool) RunScratch(n int, fn func(sc *Scratch, i int)) {
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = ClampWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := p.e.AcquireScratch()
		for i := 0; i < n; i++ {
			fn(sc, i)
		}
		p.e.ReleaseScratch(sc)
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := p.e.AcquireScratch()
			defer p.e.ReleaseScratch(sc)
			for {
				i := next.Add(1)
				if i >= int64(n) {
					return
				}
				fn(sc, int(i))
			}
		}()
	}
	wg.Wait()
}

// BatchOptions tunes DiagnoseBatch.
type BatchOptions struct {
	// Workers is the size of the worker pool diagnosing syndromes
	// concurrently; 0 or negative means GOMAXPROCS, and requests above
	// it are clamped (see ClampWorkers). Each worker owns a dedicated
	// Scratch from the engine pool, so steady-state batches allocate
	// only the caller-owned results. Ignored when Pool is set.
	Workers int
	// Pool, when non-nil, supplies the worker pool the batch runs on
	// instead of transient per-call goroutines — see BatchPool and
	// campaign.Runtime. The pool decides its own parallelism.
	Pool BatchPool
	// ShareCertification groups the batch's lazy syndromes by fault
	// hypothesis and runs the Theorem 1 part scan once per group: the
	// group's first syndrome certifies normally, and every other
	// member adopts the shared verdict, paying only its final
	// Set_Builder pass. Fault sets and final-pass look-ups stay
	// bit-identical to individual calls; the members' Stats record the
	// shared verdict with CertLookups = 0 and PartsScanned copied from
	// the representative. Opt-in because it changes the members'
	// observed total look-up counts (that saving is the feature).
	//
	// Sharing is sound because the scan certificate's per-part verdict
	// does not depend on faulty-tester behaviour while the hypothesis
	// respects the fault bound: a fault-free part is tested only by
	// healthy members, a mixed part always contains a healthy member
	// whose consulted pair holds its faulty part-neighbour (forcing a
	// 1), and the one behaviour-dependent case — an all-faulty part —
	// would need more than δ faults. Syndromes outside the guards
	// (non-lazy, StrategyPaper, caller-supplied Parts, hypotheses
	// beyond the bound) are diagnosed individually within the batch.
	ShareCertification bool
	// ShareFinalPrefix additionally shares the behaviour-independent
	// prefix of the final Set_Builder pass across each group: the
	// representative's final pass records a checkpoint at the first
	// round whose frontier would consult a comparison involving a
	// hypothesised-faulty node, and every other member resumes from it,
	// consulting the syndrome only past the checkpoint. While the
	// frontier avoids F ∪ N(F) every consulted comparison has a healthy
	// tester, parent and candidate, so those rounds' admissions, tree
	// and look-up trace are identical under every behaviour — see
	// finalPrefix for the full argument. Fault sets and the shape
	// fields of Stats (Seed, Rounds, HealthyCount, FaultCount) stay
	// bit-identical to individual calls; the accounting contract is
	// that prefix look-ups are paid once by the representative and
	// members report only their own suffix (FinalLookups), with the
	// adopted prefix recorded in Stats.SharedFinalRounds /
	// SharedFinalLookups. Grouping guards match ShareCertification;
	// the flags compose but are independent — either may be set alone.
	// FinalWorkers > 1 final passes (on graphs large enough to engage
	// the parallel pass) record no checkpoint and members run in full.
	//
	// With Options.ResultCache set, both kinds of shared state outlive
	// the batch: each hypothesis's scan verdict and checkpoint are
	// stored as a hypothesis entry of the cache (see ResultCache), and
	// a later batch resumes every syndrome of a stored hypothesis as a
	// member — no representative re-runs the scan or the prefix. Each
	// flag still governs only its own half: a batch without
	// ShareFinalPrefix never resumes a stored checkpoint, one without
	// ShareCertification never adopts a stored verdict.
	ShareFinalPrefix bool
	// Options applies to every diagnosis in the batch. Scratch is
	// ignored (workers bind their own); Workers inside Options still
	// selects parallel part certification per syndrome and composes
	// with the batch pool — leave it 0 for the deterministic,
	// lookup-identical sequential path.
	Options Options
}

// BatchResult is the outcome of one syndrome in a DiagnoseBatch call.
// Faults and Stats are caller-owned (never scratch views).
type BatchResult struct {
	Faults *bitset.Set
	Stats  Stats
	Err    error
}

// DiagnoseBatch diagnoses many syndromes against the bound network
// through a worker pool, amortising all syndrome-independent setup.
// results[i] always corresponds to syndromes[i] regardless of worker
// scheduling, and each syndrome's fault set and look-up count are
// identical to what a sequential Diagnose call would produce — batching
// changes throughput, not answers. The whole batch runs against one
// binding snapshot: a concurrent Rebind affects only later calls.
//
// Each syndrome is driven by exactly one worker, so plain *syndrome.Lazy
// syndromes are safe here; the syndromes themselves must be distinct.
func (e *Engine) DiagnoseBatch(syndromes []syndrome.Syndrome, opt BatchOptions) []BatchResult {
	results := make([]BatchResult, len(syndromes))
	if len(syndromes) == 0 {
		return results
	}
	b := e.bnd.Load()
	pool := opt.Pool
	if pool == nil {
		pool = transientPool{e: e, workers: opt.Workers}
	}
	if opt.ShareCertification || opt.ShareFinalPrefix {
		e.diagnoseGrouped(b, pool, syndromes, opt, results)
		return results
	}
	pool.RunScratch(len(syndromes), func(sc *Scratch, i int) {
		results[i] = e.diagnoseOne(b, syndromes[i], opt.Options, sc)
	})
	return results
}

// diagnoseGrouped implements BatchOptions.ShareCertification and
// BatchOptions.ShareFinalPrefix. Syndromes are grouped by fault
// hypothesis, and each group resolves its shared state (hypState) from
// the store: the batch-local groups, backed by the ResultCache's
// hypothesis entries when Options.ResultCache is set. A group whose
// hypothesis is stored has no representative; otherwise phase A
// diagnoses its first syndrome (and every ungroupable one) in full,
// recording the final-prefix checkpoint as a side effect, and the
// recorded state is stored. Phase B then runs every member under the
// shared certification verdict and/or resumed from the checkpoint. See
// the two BatchOptions fields for the soundness arguments and the
// accounting contracts.
func (e *Engine) diagnoseGrouped(b *binding, pool BatchPool, syndromes []syndrome.Syndrome, bopt BatchOptions, results []BatchResult) {
	opt := bopt.Options
	delta := b.delta
	if opt.FaultBound > 0 && opt.FaultBound < delta {
		delta = opt.FaultBound
	}
	groupable := opt.Strategy == StrategyScan && opt.Parts == nil
	memo := opt.ResultCache

	type group struct {
		faults *bitset.Set
		hash   uint64 // faultsHash(faults)
		idx    []int  // the group's syndromes, in batch order
		rep    bool   // idx[0] runs in phase A and records hyp
		hyp    *hypState
	}
	type task struct {
		idx int
		hyp *hypState // nil for ungroupable syndromes
	}
	var phaseA []task
	var groups []*group
	byHash := make(map[uint64][]*group)
	for i, s := range syndromes {
		lz, ok := s.(*syndrome.Lazy)
		if !ok || !groupable || lz.Faults().Count() > delta {
			phaseA = append(phaseA, task{idx: i})
			continue
		}
		h := faultsHash(lz.Faults())
		var grp *group
		for _, cand := range byHash[h] {
			if cand.faults.Equal(lz.Faults()) {
				grp = cand
				break
			}
		}
		if grp == nil {
			grp = &group{faults: lz.Faults(), hash: h}
			byHash[h] = append(byHash[h], grp)
			groups = append(groups, grp)
		}
		grp.idx = append(grp.idx, i)
	}

	for _, grp := range groups {
		if memo != nil {
			if hs := memo.lookupHypothesis(grp.faults, grp.hash, delta, opt.Strategy, b.epoch, bopt.ShareFinalPrefix); hs != nil {
				grp.hyp = hs
				continue
			}
		}
		grp.hyp = &hypState{}
		// Record the final prefix only where someone can resume from it:
		// the group's own members, or later batches through the memo.
		if bopt.ShareFinalPrefix && (len(grp.idx) > 1 || memo != nil) {
			grp.hyp.prefix = &finalPrefix{}
		}
		grp.rep = true
		phaseA = append(phaseA, task{grp.idx[0], grp.hyp})
	}

	pool.RunScratch(len(phaseA), func(sc *Scratch, k int) {
		t := phaseA[k]
		o := opt
		if t.hyp != nil {
			o.recordPrefix = t.hyp.prefix
		}
		results[t.idx] = e.diagnoseOne(b, syndromes[t.idx], o, sc)
	})

	var phaseB []task
	for _, grp := range groups {
		members := grp.idx
		if grp.rep {
			members = members[1:]
			// A completed scan is shareable whether it certified (Err ==
			// nil or the final pass overflowed the bound) or exhausted the
			// candidates (ErrNoHealthyPart); any other error happened
			// before certification, so members diagnose in full and fail
			// the same way the representative did.
			rep := results[grp.idx[0]]
			if rep.Err == nil || errors.Is(rep.Err, ErrNoHealthyPart) || errors.Is(rep.Err, ErrTooManyFaults) {
				grp.hyp.scan = &sharedScan{certified: rep.Stats.CertifiedPart, partsScanned: rep.Stats.PartsScanned}
				// A representative answered from the result cache recorded
				// no prefix; storing its state would pin an empty one.
				if memo != nil && (grp.hyp.prefix == nil || grp.hyp.prefix.settled) {
					memo.insertHypothesis(grp.faults, grp.hash, delta, opt.Strategy, b.epoch, grp.hyp, b.adj.N())
				}
			}
		}
		for _, m := range members {
			phaseB = append(phaseB, task{m, grp.hyp})
		}
	}
	pool.RunScratch(len(phaseB), func(sc *Scratch, k int) {
		t := phaseB[k]
		o := opt
		if bopt.ShareCertification {
			o.shared = t.hyp.scan
		}
		if bopt.ShareFinalPrefix {
			o.resumePrefix = t.hyp.prefix
		}
		results[t.idx] = e.diagnoseOne(b, syndromes[t.idx], o, sc)
	})
}

// diagnoseOne runs one batch element on a worker-owned scratch and
// copies the results out of it.
func (e *Engine) diagnoseOne(b *binding, s syndrome.Syndrome, opt Options, sc *Scratch) BatchResult {
	opt.Scratch = sc
	sc.ensure(b.adj.N())
	faults, stats, err := e.diagnose(b, s, opt)
	var r BatchResult
	if faults != nil {
		r.Faults = faults.Clone()
	}
	if stats != nil {
		r.Stats = *stats
	}
	r.Err = err
	return r
}

// cloneResults copies scratch-view diagnosis results into caller-owned
// values (nil-safe on both).
func cloneResults(faults *bitset.Set, stats *Stats) (*bitset.Set, *Stats) {
	var f *bitset.Set
	if faults != nil {
		f = faults.Clone()
	}
	var st *Stats
	if stats != nil {
		cp := *stats
		st = &cp
	}
	return f, st
}
