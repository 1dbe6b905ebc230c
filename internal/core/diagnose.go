package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Strategy selects how parts are certified fault-free during the search
// phase of Diagnose.
type Strategy int

const (
	// StrategyScan uses the O(Δ|P|) scan certificate (CertifyPart):
	// sound and complete whenever the partition preconditions hold.
	// This is the default.
	StrategyScan Strategy = iota
	// StrategyPaper uses the paper's literal contributor-count
	// certificate (restricted Set_Builder). Sound, but incomplete at the
	// paper's prescribed part sizes (gap G1); exposed for the ablation.
	StrategyPaper
)

// Options tunes Diagnose.
type Options struct {
	// Strategy selects the part certificate (default StrategyScan).
	Strategy Strategy
	// Workers > 1 certifies candidate parts concurrently. 0 or 1 means
	// sequential; negative means GOMAXPROCS.
	Workers int
	// Parts, when non-nil, overrides the network's own partition.
	Parts []topology.Part
	// FaultBound, when in (0, δ), tightens the assumed fault bound: if
	// the caller knows |F| ≤ t < δ, smaller and fewer parts suffice and
	// certification gets cheaper. Values ≤ 0 or > δ use δ.
	FaultBound int
	// Scratch, when non-nil, supplies the working buffers and makes the
	// sequential diagnosis path allocation-free: the returned fault set
	// and Stats are then views into the scratch, valid until its next
	// use (see Scratch). When nil, Diagnose draws a scratch from an
	// internal pool and returns caller-owned copies.
	Scratch *Scratch
	// FinalWorkers > 1 splits the final Set_Builder growth rounds across
	// that many workers on large graphs (≥ 4096 nodes; smaller graphs
	// stay sequential), for CSR and implicit adjacencies alike. The
	// fault set, tree and round count are always identical to the
	// sequential pass. On an engine with a bound word kernel the rounds
	// split at word granularity and even the look-up count stays
	// bit-identical (see rangedRounder); on the generic barrier pass
	// frontier workers cannot observe same-round admissions, so the
	// look-up count may exceed the sequential pass (see
	// SetBuilderParallel). 0 or 1 keeps the sequential pass; negative
	// means GOMAXPROCS. Stats.FinalWorkersUsed reports the fan-out that
	// actually engaged.
	FinalWorkers int
	// GenericFinal suppresses the engine's structure-specialised final
	// kernel, forcing the generic adaptive pass (setBuilderLazyInto).
	// Results and look-up counts are identical either way; the knob
	// exists for ablations and the perf suite's kernel-vs-generic
	// comparison. Ignored by the free functions (which never bind a
	// kernel).
	GenericFinal bool
	// ResultCache, when non-nil, memoises whole diagnosis outcomes on
	// the engine serving path: a *syndrome.Lazy whose fault hypothesis
	// and behaviour were already diagnosed under the same effective
	// fault bound and strategy is answered from the cache without any
	// syndrome consultation, and misses populate it. Results are
	// copied out on every hit (see ResultCache). Grouped batches also
	// keep each hypothesis's shared scan verdict and final prefix in it
	// (see BatchOptions.ShareFinalPrefix). The free functions
	// ignore the field — they are the paper-literal reference and
	// always recompute.
	ResultCache *ResultCache
	// fastFinal routes the final pass through the engine's specialised
	// kernel when the syndrome is a *syndrome.Lazy (set by Engine; the
	// free functions keep the reference loop). Output and look-up count
	// are identical either way — see setBuilderLazyInto.
	fastFinal bool
	// kernel carries the engine's bound structure kernel into the final
	// pass (see kernel.go); nil for generic topologies.
	kernel finalKernel
	// shared carries a certification verdict computed once per fault
	// hypothesis (see BatchOptions.ShareCertification and hypState): the
	// certified part index and the representative's scan footprint.
	// When set, the part scan is skipped entirely — only the final pass
	// consults the syndrome — and the Stats record the shared verdict
	// with CertLookups pinned to 0 (this syndrome spent none).
	shared *sharedScan
	// recordPrefix asks the final pass to record the hypothesis's shared
	// final-prefix checkpoint (set by a grouped DiagnoseBatch on each
	// group representative; see BatchOptions.ShareFinalPrefix and
	// finalPrefix). Recording never changes the representative's own
	// results or accounting.
	recordPrefix *finalPrefix
	// resumePrefix lets the final pass resume from a recorded
	// checkpoint instead of regrowing the behaviour-independent prefix
	// (set by a grouped DiagnoseBatch on group members). The member's
	// FinalLookups then cover only its own consultations past the
	// checkpoint; the adopted prefix is reported via the Stats
	// SharedFinal* fields.
	resumePrefix *finalPrefix
}

// sharedScan is the immutable part-certification verdict a grouped
// batch shares across all syndromes of one fault hypothesis.
type sharedScan struct {
	certified    int // index of the certified part, -1 for none
	partsScanned int // the representative's scan length
}

// Stats reports what a Diagnose call did — the quantities compared in
// the paper's Sections 3 and 6.
type Stats struct {
	Delta         int   // fault bound δ used
	PartsScanned  int   // parts examined before one certified
	CertifiedPart int   // index of the certified part
	Seed          int32 // seed of the final Set_Builder pass
	HealthyCount  int   // |U_r| of the final pass
	FaultCount    int   // |N| = number of faults reported
	Rounds        int   // growth rounds of the final pass
	CertLookups   int64 // syndrome look-ups spent certifying parts
	FinalLookups  int64 // syndrome look-ups of the final pass
	TotalLookups  int64 // all look-ups of this call

	// SharedFinalRounds and SharedFinalLookups are non-zero only for
	// members of a ShareFinalPrefix group: the growth rounds and
	// syndrome look-ups of the adopted behaviour-independent prefix,
	// which the group representative computed (and whose consultations
	// the representative's Stats carry). For such members FinalLookups
	// counts only the consultations past the checkpoint, so
	// FinalLookups + SharedFinalLookups equals the free-function
	// FinalLookups of the same syndrome.
	SharedFinalRounds  int
	SharedFinalLookups int64

	// FinalWorkersUsed reports the fan-out the final pass actually ran
	// with when Options.FinalWorkers requested parallelism (a request
	// above 1, or negative for GOMAXPROCS): the worker count that
	// engaged, or 1 when the request could not engage — a graph below
	// the parallel size gate, or a single available hardware thread —
	// and the pass silently took the sequential path. It stays 0
	// whenever FinalWorkers is 0 or 1, so whole-struct Stats comparisons
	// against the sequential reference path remain valid.
	FinalWorkersUsed int

	// Degraded marks a diagnosis served by a churn-degraded engine
	// (one that went through Engine.Rebind or was created by
	// Engine.Survivor): the result is still an exact Theorem 1
	// diagnosis, but of the surviving component under the degraded
	// fault bound EffectiveDelta rather than the originally bound
	// network under δ. Both fields stay zero on every non-degraded
	// path — the free functions and freshly bound engines — so
	// whole-struct Stats comparisons against the reference path remain
	// valid there.
	Degraded       bool
	EffectiveDelta int
}

// ErrNoHealthyPart means no candidate part certified as fault-free.
// Under the stated preconditions (|F| ≤ δ, valid partition) this cannot
// happen with StrategyScan; with StrategyPaper it records gap G1, and
// otherwise it signals that the fault set exceeded δ.
var ErrNoHealthyPart = errors.New("core: no part certified fault-free (fault bound exceeded, or paper certificate too weak — see docs/algorithm.md, gap G1)")

// ErrTooManyFaults means the diagnosis produced more than δ fault
// candidates, proving the syndrome was generated by a fault set larger
// than the diagnosability bound.
var ErrTooManyFaults = errors.New("core: diagnosed fault set exceeds the diagnosability bound")

// Diagnose solves the fault diagnosis problem for the network: given a
// syndrome produced by at most δ = nw.Diagnosability() faults, it
// returns exactly the fault set (Theorem 1). It uses default Options.
//
// Diagnose rebuilds all syndrome-independent state (partition,
// candidate order) per call and runs the paper-literal reference loop.
// Callers diagnosing one network repeatedly should bind an Engine
// instead: identical results and look-up counts, amortised setup.
func Diagnose(nw topology.Network, s syndrome.Syndrome) (*bitset.Set, *Stats, error) {
	return DiagnoseOpts(nw, s, Options{})
}

// DiagnoseOpts is Diagnose with explicit Options. It is the per-call
// equivalent of NewEngine(nw).DiagnoseOpts(s, opt) without retaining
// the engine.
func DiagnoseOpts(nw topology.Network, s syndrome.Syndrome, opt Options) (*bitset.Set, *Stats, error) {
	delta := nw.Diagnosability()
	if opt.FaultBound > 0 && opt.FaultBound < delta {
		// A tighter caller-supplied bound is sound as long as it really
		// bounds |F|: κ ≥ δ > t keeps the Theorem 1 closure valid.
		delta = opt.FaultBound
	}
	parts := opt.Parts
	if parts == nil {
		var err error
		parts, err = nw.Parts(delta+1, delta+1)
		if err != nil {
			return nil, nil, fmt.Errorf("diagnosing %s: %w", nw.Name(), err)
		}
	}
	return DiagnoseGraph(nw.Graph(), delta, parts, s, opt)
}

// DiagnoseGraph runs the Theorem 1 procedure on an explicit graph,
// fault bound and partition: scan parts until one certifies fault-free,
// grow the healthy set from its seed with an unrestricted Set_Builder,
// and return the neighbourhood N of the healthy set — exactly the fault
// set when κ(g) ≥ delta and the partition satisfies the preconditions
// (≥ delta+1 disjoint connected parts, each larger than delta with
// induced minimum degree ≥ 2).
//
// Without Options.Scratch the returned fault set and Stats are owned by
// the caller; with it they are scratch views (see Options.Scratch).
func DiagnoseGraph(g *graph.Graph, delta int, parts []topology.Part, s syndrome.Syndrome, opt Options) (*bitset.Set, *Stats, error) {
	if opt.Scratch != nil {
		return diagnoseInto(opt.Scratch, g, delta, parts, s, opt)
	}
	sc := getScratch(g.N())
	faults, stats, err := diagnoseInto(sc, g, delta, parts, s, opt)
	faults, stats = cloneResults(faults, stats)
	putScratch(sc)
	return faults, stats, err
}

// diagnoseInto is the allocation-free core of DiagnoseGraph; everything
// it returns lives in sc. The adjacency may be CSR-backed or implicit
// (graph.CayleyAdjacency, via Engine's implicit mode); results and
// look-up counts are identical either way.
func diagnoseInto(sc *Scratch, a graph.Adjacencer, delta int, parts []topology.Part, s syndrome.Syndrome, opt Options) (*bitset.Set, *Stats, error) {
	sc.ensure(a.N())
	if opt.recordPrefix != nil {
		// This call diagnoses rather than replaying a cached outcome, so
		// the recorder's verdict — a checkpoint, or an empty prefix — is
		// final once the call returns.
		opt.recordPrefix.settled = true
	}
	stats := &sc.stats
	*stats = Stats{Delta: delta, CertifiedPart: -1}
	startLookups := s.Lookups()

	// Only delta+1 disjoint parts are needed: one of them must be
	// fault-free.
	candidates := parts
	if len(candidates) > delta+1 {
		candidates = candidates[:delta+1]
	}

	var certified int
	if opt.shared != nil {
		// Grouped batch: this hypothesis was already certified by its
		// group representative; adopt the shared verdict. CertLookups
		// comes out 0 below because this syndrome was never consulted
		// during the scan.
		stats.PartsScanned = opt.shared.partsScanned
		certified = opt.shared.certified
	} else if workers := ClampWorkers(opt.Workers); workers > 1 {
		certified = certifyParallel(a, s, candidates, delta, opt.Strategy, workers)
		stats.PartsScanned = len(candidates) // parallel scan may touch all
	} else {
		certified = -1
		for i, p := range candidates {
			stats.PartsScanned = i + 1
			if certifyOne(sc, a, s, p, delta, opt.Strategy) {
				certified = i
				break
			}
		}
	}
	if certified < 0 {
		return nil, stats, ErrNoHealthyPart
	}
	stats.CertifiedPart = certified
	stats.CertLookups = s.Lookups() - startLookups

	seed := candidates[certified].Seed
	stats.Seed = seed

	beforeFinal := s.Lookups()
	finalWorkers := ClampWorkers(opt.FinalWorkers)
	parallel := finalWorkers > 1 && a.N() >= parallelFinalMinNodes
	if opt.FinalWorkers > 1 || opt.FinalWorkers < 0 {
		// Parallelism was requested: stamp the fan-out that actually
		// engaged, so a silently-sequential pass (small graph, single
		// hardware thread) is visible instead of indistinguishable from
		// a parallel one (cmd/diagnose prints this).
		stats.FinalWorkersUsed = 1
		if parallel {
			stats.FinalWorkersUsed = finalWorkers
		}
	}
	var final *SetBuilderResult
	var resumed *finalPrefix
	if parallel {
		// Parallel final passes never record or resume a shared-prefix
		// checkpoint (see BatchOptions.ShareFinalPrefix): grouped members
		// run in full.
		if opt.fastFinal && opt.kernel != nil {
			if lz, ok := s.(*syndrome.Lazy); ok {
				// Bound word kernel: rounds split at word granularity, so
				// the tree AND the look-up count stay bit-identical to the
				// sequential kernel (see rangedRounder).
				sc.finalWorkers = finalWorkers
				final = opt.kernel.run(sc, a, lz, seed, delta)
				sc.finalWorkers = 0
			}
		}
		if final == nil {
			// Generic barrier pass (CSR or implicit adjacency): identical
			// tree, look-ups may grow — workers cannot observe same-round
			// admissions (see SetBuilderParallel).
			final = setBuilderParallelInto(sc, a, s, seed, delta, nil, finalWorkers)
		}
	} else if opt.fastFinal {
		if lz, ok := s.(*syndrome.Lazy); ok {
			// Checkpoint plumbing rides on the scratch so every final
			// kernel (word-parallel drivers and the generic sweep) sees
			// it without widening the kernel interface. Resume engages
			// only when the checkpoint grew from this call's certified
			// seed — with unshared certification a member's own scan is
			// behaviour-independent under the grouping guards, so this
			// guard only bites when those guarantees were broken.
			if fp := opt.resumePrefix; fp != nil && fp.valid && fp.u0 == seed {
				sc.prefixRes = fp
				resumed = fp
			}
			sc.prefixRec = opt.recordPrefix
			if opt.kernel != nil {
				final = opt.kernel.run(sc, a, lz, seed, delta)
			} else {
				final = setBuilderLazyInto(sc, a, lz, seed, delta)
			}
			sc.prefixRec, sc.prefixRes = nil, nil
		}
	}
	if final == nil {
		final = SetBuilderInto(sc, a, s, seed, delta, nil)
	}
	stats.FinalLookups = s.Lookups() - beforeFinal
	if resumed != nil {
		stats.SharedFinalRounds = resumed.rounds
		stats.SharedFinalLookups = resumed.lookups
	}
	stats.Rounds = final.Rounds
	stats.HealthyCount = final.U.Count()

	faults := sc.faultsBuf()
	sc.nbuf = graph.NeighborsOfSetOnInto(a, final.U, faults, sc.nbuf)
	stats.FaultCount = faults.Count()
	stats.TotalLookups = s.Lookups() - startLookups
	if stats.FaultCount > delta {
		return nil, stats, ErrTooManyFaults
	}
	return faults, stats, nil
}

// certifyOne runs the selected certificate on one part using sc's
// reusable mask (populated and cleared member-wise — O(|part|), not
// O(n)) and neighbour buffer. Both the sequential scan and the
// parallel workers go through here, so the two paths cannot diverge.
func certifyOne(sc *Scratch, a graph.Adjacencer, s syndrome.Syndrome, p topology.Part, delta int, strat Strategy) bool {
	mask := sc.maskBuf()
	for _, v := range p.Nodes {
		mask.Add(int(v))
	}
	ok := false
	if strat == StrategyPaper {
		ok = certifyPaperInto(sc, a, s, p.Seed, delta, mask) != nil
	} else {
		ok, sc.ns, sc.nbuf = certifyScan(a, s, p.Nodes, mask, sc.ns, sc.nbuf)
	}
	for _, v := range p.Nodes {
		mask.Remove(int(v))
	}
	return ok
}

// certifyParallel scans candidate parts concurrently and returns the
// least index that certifies, or -1. The result is deterministic: an
// index is only skipped when a smaller or equal index has already
// certified. Each worker draws its own pooled Scratch and — when the
// syndrome supports sharding — a per-worker Shard view, so look-up
// counting stays exact without a contended atomic per Test.
func certifyParallel(a graph.Adjacencer, s syndrome.Syndrome, parts []topology.Part, delta int, strat Strategy, workers int) int {
	best := atomic.Int64{}
	best.Store(int64(len(parts)))
	var wg sync.WaitGroup
	idx := atomic.Int64{}
	idx.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws syndrome.Syndrome
			if sharder, ok := s.(syndrome.Sharder); ok {
				shard := sharder.Shard()
				defer shard.Close()
				ws = shard
			} else {
				// Non-sharding syndromes must tolerate concurrent Test
				// themselves (the ForConcurrent contract).
				ws = syndrome.ForConcurrent(s)
			}
			sc := getScratch(a.N())
			defer putScratch(sc)
			for {
				i := idx.Add(1)
				if i >= int64(len(parts)) {
					return
				}
				if i >= best.Load() {
					continue
				}
				if certifyOne(sc, a, ws, parts[i], delta, strat) {
					for {
						cur := best.Load()
						if i >= cur || best.CompareAndSwap(cur, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if b := best.Load(); b < int64(len(parts)) {
		return int(b)
	}
	return -1
}
