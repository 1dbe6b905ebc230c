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
// once instead of per call. Engines bound to a network or a descriptor
// keep only the δ+1 candidate parts a diagnosis scans, and the scratch
// pool holds only what idle callers returned (sync.Pool, emptied by
// the GC), so an idle engine's footprint is its binding, not its
// working set.
//
// The free functions (Diagnose, DiagnoseOpts, DiagnoseGraph) remain the
// paper-literal reference path and rebuild that state per call; the
// Engine is the serving path. Both produce identical fault sets, stats
// and syndrome look-up counts for the same inputs: the engine's
// specialised final Set_Builder pass (see runFinalPass) consults
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
	// time, decremented by every removal — see derive).
	baseDelta  int
	connBudget int

	// parts is the default partition for delta. Where fullParts can
	// derive the whole partition again (implicit bindings, and healthy
	// bindings of a network) it holds only the delta+1 candidate parts,
	// the prefix diagnoseInto scans; degraded and graph-bound bindings
	// hold the whole partition, which churn maps forward. nil iff
	// partsErr != nil.
	parts    []topology.Part
	partsErr error

	// kernel is the specialised final-pass kernel bound from the
	// network's declared Cayley structure (or from-scratch detection);
	// nil routes the final pass through the generic pass.
	// desc is the verified descriptor the kernel was bound from, kept so
	// a rebind can re-verify it against the surviving component.
	kernel wordRounder
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

	tight    map[int][]topology.Part // FaultBound-tightened candidates
	tightErr map[int]error
}

// fullParts returns the binding's whole default partition, the one
// Rebind maps through churn and Engine.Parts reports. Where that
// partition is a pure function of the binding's origin it is derived
// again, O(n) per call: an implicit binding rebuilds it from its
// descriptor, and a healthy network binding from its network — the
// bind-time partition, which a full restore also returns element for
// element (topology.RegrowParts). A degraded binding's partition
// describes a graph the network does not, and a graph-bound engine has
// no network, so those return the partition they store.
func (b *binding) fullParts() ([]topology.Part, error) {
	switch {
	case b.implicit():
		return topology.CayleyParts(b.desc, b.delta+1, b.delta+1)
	case b.derivable():
		return b.nw.Parts(b.delta+1, b.delta+1)
	}
	return b.parts, b.partsErr
}

// derivable reports a network binding serving the network's own graph
// at its own bound, whose partition fullParts derives from the network.
func (b *binding) derivable() bool {
	return b.nw != nil && !b.degraded && b.delta == b.baseDelta
}

// compact drops every part but the delta+1 candidates from a binding
// whose full partition fullParts can derive again.
func (b *binding) compact() {
	if b.derivable() {
		b.parts = candidateParts(b.parts, b.delta+1)
	}
}

// candidateParts copies the first count parts, the candidates a
// diagnosis scans, into one exact-size backing array: re-slicing would
// keep the O(n) array a family's Parts fills all its parts from alive.
func candidateParts(parts []topology.Part, count int) []topology.Part {
	if parts == nil {
		return nil
	}
	parts = parts[:min(count, len(parts))]
	total := 0
	for _, p := range parts {
		total += len(p.Nodes)
	}
	flat := make([]int32, 0, total)
	out := make([]topology.Part, len(parts))
	for i, p := range parts {
		lo := len(flat)
		flat = append(flat, p.Nodes...)
		out[i] = topology.Part{Nodes: flat[lo:len(flat):len(flat)], Seed: p.Seed}
	}
	return out
}

// NewEngine binds an engine to the network, eagerly building the
// default partition for δ = nw.Diagnosability() and keeping only its
// δ+1 candidate parts, the ones a diagnosis scans, rather than all n
// node ids (on hypercubes the candidates hold O(δ²)).
// The full partition is derived again from the network when Rebind or
// Parts needs it. A network whose graph is descriptor-backed
// (graph.FromXORCayley: Q_n, FQ_n, Q_{n,f}, AQ_n) is served from its
// generator, so the engine holds no CSR while it is healthy; only a
// degraded survivor holds one. Construction never fails: on gap-G3
// instances with no Theorem 1 partition the error is recorded and
// returned by PartsErr and by every Diagnose call, so callers can route
// to DiagnoseWithVerification once instead of handling errors per
// syndrome.
func NewEngine(nw topology.Network) *Engine {
	b := &binding{
		nw:         nw,
		g:          nw.Graph(),
		delta:      nw.Diagnosability(),
		connBudget: nw.Connectivity(),
	}
	b.adj = servedAdjacency(b.g)
	b.baseDelta = b.delta
	b.parts, b.partsErr = nw.Parts(b.delta+1, b.delta+1)
	b.compact()
	b.kernel, b.desc = bindStructure(nw, b.g, b.adj)
	e := &Engine{name: nw.Name()}
	e.bnd.Store(b)
	return e
}

// bindStructure resolves the engine's final-pass kernel at bind time:
// a declared descriptor first (validated against the CSR adjacency by
// graph.VerifyCayley, so a buggy declaration degrades to the generic
// kernel instead of corrupting results), then the from-scratch XOR
// probe for networks that declare nothing. Both run once per engine
// and are O(m), except that a graph graph.FromXORCayley built verifies
// against its own descriptor without a scan. The kernel is sized for a,
// the adjacency the binding serves. The verified descriptor is returned
// alongside the kernel so a later Rebind can re-verify it on the
// surviving component.
func bindStructure(nw topology.Network, g *graph.Graph, a graph.Adjacencer) (wordRounder, graph.CayleyDescriptor) {
	if cs, ok := nw.(topology.CayleyStructured); ok {
		if desc := cs.CayleyStructure(); desc != nil && graph.VerifyCayley(g, desc) == nil {
			// A verified declaration is the whole truth about the
			// adjacency; when no kernel covers it (e.g. below the
			// 64-node floor), re-probing from scratch could only
			// rediscover the same structure.
			return bindFinalKernel(desc, a), desc
		}
	}
	if desc, ok := graph.DetectXORCayley(g); ok {
		return bindFinalKernel(desc, a), desc
	}
	return nil, nil
}

// kernelName is the observability tag for a (possibly nil) kernel.
func kernelName(k wordRounder) string {
	if k == nil {
		return "generic"
	}
	return k.Name()
}

// KernelName reports the bound final-pass kernel — "xor-cayley",
// "xor-cayley[multi-bit]", "additive-rotate", or "generic" when no
// kernel bound (including structures no kernel covers, such as the
// augmented k-ary cubes' mixed-radix descriptors). Observability only:
// all kernels are defined to be result- and look-up-identical.
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
	nb.kernel = bindFinalKernel(desc, b.adj)
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
	e.bnd.Store(&binding{g: g, adj: servedAdjacency(g), delta: delta, baseDelta: delta, connBudget: delta, parts: parts})
	return e
}

// servedAdjacency is the adjacency a binding over g serves: the
// generator of a descriptor-backed graph (graph.FromXORCayley), so that
// a healthy Q_n, FQ_n, Q_{n,f} or AQ_n binding never writes its CSR, and
// g itself otherwise. Both list every neighbourhood ascending, so
// results and look-ups do not depend on which one is served.
func servedAdjacency(g *graph.Graph) graph.Adjacencer {
	if ca := g.CayleyAdjacency(); ca != nil {
		return ca
	}
	return g
}

// NewCayleyEngine binds an engine directly from a Cayley descriptor —
// the implicit-adjacency mode: no CSR is ever materialised, neighbours
// are generated algebraically on demand (graph.CayleyAdjacency), and
// the Theorem 1 partition is computed from the descriptor's coset
// structure instead of an edge scan, and only its delta+1 candidate
// parts are kept (topology.CayleyCandidates): the ones a diagnosis
// scans. Nothing proportional to the node count is allocated at bind,
// so memory at rest is O(descriptor + δ²) — a Q20 hypercube binds in
// kilobytes where the CSR's targets array alone is ~80 MB — plus one
// scratch per diagnosis in flight. Results and syndrome look-up counts
// are bit-identical to a CSR-bound engine on the same graph.
//
// delta is the fault bound δ served, which for the declared families is
// the graph's connectivity (e.g. n for Q_n). The descriptor is shape-
// validated (graph.NewCayleyAdjacency); a malformed descriptor returns
// an error. A coset partition that cannot be derived for the requested
// bound is recorded exactly like NewEngine records a partition error —
// construction still succeeds and every Diagnose reports it.
//
// Implicit engines serve Diagnose/DiagnoseOpts/DiagnoseBatch in full
// (including FaultBound tightening, sharing and result caches). They do
// not support Rebind/Survivor, which take deltas of the *graph.Graph an
// engine is bound to (NewEngine on Q_n, FQ_n, Q_{n,f} or AQ_n binds a
// graph backed by the same generator set, which holds no CSR until a
// removal is compacted), or BindCayley (the structure is the binding),
// and Graph() returns nil.
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
	b.parts, b.partsErr = topology.CayleyCandidates(desc, delta+1, delta+1)
	b.kernel = bindFinalKernel(desc, ca)
	e := &Engine{name: cayleyEngineName(desc)}
	e.bnd.Store(b)
	return e, nil
}

// cayleyEngineName names a descriptor-bound engine in its error text.
// A single-bit XOR descriptor with one generator per bit is Q_n, and
// takes the hypercube network's name, so the two bindings of Q_n fail
// with the same message; any other descriptor is named by its String.
func cayleyEngineName(desc graph.CayleyDescriptor) string {
	if x, ok := desc.(graph.XORCayley); ok && !x.MultiBit() && len(x.Masks) == x.Bits {
		return fmt.Sprintf("Q%d", x.Bits)
	}
	return desc.String()
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

// Parts returns the default partition (or the recorded construction
// error). An engine bound to a network or a descriptor stores only the
// δ+1 candidate parts it scans, so while it is healthy Parts derives
// the full partition again on every call (from the network, or
// topology.CayleyParts) — O(n) node ids, the memory the binding itself
// avoids. A degraded or graph-bound engine returns the partition it
// stores. It is meant for inspection and tests, not the serving path.
func (e *Engine) Parts() ([]topology.Part, error) { return e.bnd.Load().fullParts() }

// implicit reports a descriptor-bound binding (NewCayleyEngine): no
// network, no CSR.
func (b *binding) implicit() bool { return b.nw == nil && b.g == nil && b.desc != nil }

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
// reach bound+1 ≤ δ′+1). Only the bound+1 candidates of each tightened
// partition are cached, like the default one, so a distinct bound
// costs bound+1 parts at rest rather than another whole partition.
func (e *Engine) partsFor(b *binding, bound int) ([]topology.Part, error) {
	implicit := b.implicit()
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
		p, err = topology.CayleyCandidates(b.desc, bound+1, bound+1)
	} else {
		p, err = b.nw.Parts(bound+1, bound+1)
		p = candidateParts(p, bound+1)
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
// persistent workers (no per-batch pool construction) so long-running
// batch clients share one runtime across campaigns, CLI batches and
// replay drivers. Both borrow one engine scratch per worker for the
// length of a RunScratch call and return it afterwards, so an idle
// pool holds none.
type BatchPool interface {
	RunScratch(n int, fn func(sc *Scratch, i int))
}

// transientPool is the default BatchPool: goroutines spawned per call,
// each owning a pooled engine scratch, work distributed by an atomic
// cursor. A panic in fn is isolated as campaign.Runtime.Run isolates
// one: no further indices are handed out, the interrupted scratch is
// dropped rather than pooled, and once every worker has stopped the
// first panic's value is re-raised in the caller. With one worker fn
// runs on the caller, so the panic reaches it directly.
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
	var panicked atomic.Pointer[any] // the first panic, re-raised below
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			sc := p.e.AcquireScratch()
			defer func() {
				// A panic leaves the scratch mid-diagnosis: drop it, and
				// stop the other workers claiming indices.
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, &v)
					next.Store(int64(n))
				} else {
					p.e.ReleaseScratch(sc)
				}
				wg.Done()
			}()
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
	if v := panicked.Load(); v != nil {
		panic(*v)
	}
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
	// ShareHypotheses groups the batch's lazy syndromes by fault
	// hypothesis and shares each group's behaviour-independent work:
	// the group's first syndrome (the representative) is diagnosed
	// normally, and every other member adopts its part-certification
	// verdict and resumes its final pass from the representative's
	// final-prefix checkpoint. Fault sets and the shape fields of Stats
	// (Seed, Rounds, HealthyCount, FaultCount) stay bit-identical to
	// individual calls. Opt-in because it changes the members' observed
	// look-up counts (that saving is the feature): members report
	// CertLookups = 0 with PartsScanned copied from the representative,
	// and FinalLookups covers only their own consultations past the
	// checkpoint, with the adopted prefix recorded in
	// Stats.SharedFinalRounds / SharedFinalLookups — so FinalLookups +
	// SharedFinalLookups equals the free-function FinalLookups.
	//
	// Sharing the verdict is sound because the scan certificate's
	// per-part verdict does not depend on faulty-tester behaviour while
	// the hypothesis respects the fault bound: a fault-free part is
	// tested only by healthy members, a mixed part always contains a
	// healthy member whose consulted pair holds its faulty
	// part-neighbour (forcing a 1), and the one behaviour-dependent
	// case — an all-faulty part — would need more than δ faults.
	// Sharing the prefix is sound because the checkpoint sits at the
	// first round whose frontier would consult a comparison involving a
	// hypothesised-faulty node: while the frontier avoids F ∪ N(F)
	// every consulted comparison has a healthy tester, parent and
	// candidate, so those rounds' admissions, tree and look-up trace
	// are identical under every behaviour — see finalPrefix for the
	// full argument. Syndromes outside the guards (non-lazy,
	// StrategyPaper, caller-supplied Parts, hypotheses beyond the
	// bound) are diagnosed individually within the batch.
	//
	// With Options.ResultCache set, the shared state outlives the
	// batch: each hypothesis's scan verdict and checkpoint are stored
	// as a hypothesis entry of the cache (see ResultCache), and a later
	// batch resumes every syndrome of a stored hypothesis as a member —
	// no representative re-runs the scan or the prefix.
	ShareHypotheses bool
	// Options applies to every diagnosis in the batch. Scratch is
	// ignored (workers bind their own).
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
	if opt.ShareHypotheses {
		e.diagnoseGrouped(b, pool, syndromes, opt.Options, results)
		return results
	}
	pool.RunScratch(len(syndromes), func(sc *Scratch, i int) {
		results[i] = e.diagnoseOne(b, syndromes[i], opt.Options, sc)
	})
	return results
}

// diagnoseGrouped implements BatchOptions.ShareHypotheses. Syndromes
// are grouped by fault hypothesis, and each group resolves its shared
// state (hypState) from the store: the batch-local groups, backed by
// the ResultCache's hypothesis entries when Options.ResultCache is set.
// A group whose hypothesis is stored has no representative; otherwise
// phase A diagnoses its first syndrome (and every ungroupable one) in
// full, recording the final-prefix checkpoint as a side effect, and the
// recorded state is stored. Phase B then runs every member under the
// shared certification verdict, resumed from the checkpoint. See
// BatchOptions.ShareHypotheses for the soundness arguments and the
// accounting contract.
func (e *Engine) diagnoseGrouped(b *binding, pool BatchPool, syndromes []syndrome.Syndrome, opt Options, results []BatchResult) {
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
			if hs := memo.lookupHypothesis(grp.faults, grp.hash, delta, opt.Strategy, b.epoch); hs != nil {
				grp.hyp = hs
				continue
			}
		}
		grp.hyp = &hypState{}
		// Record the final prefix only where someone can resume from it:
		// the group's own members, or later batches through the memo.
		if len(grp.idx) > 1 || memo != nil {
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
				if memo != nil && grp.hyp.prefix.settled {
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
		o.shared, o.resumePrefix = t.hyp.scan, t.hyp.prefix
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
