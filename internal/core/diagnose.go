package core

import (
	"errors"
	"fmt"

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
	// GenericFinal suppresses the engine's structure-specialised final
	// kernel, forcing the generic pass (runFinalPass without a
	// rounder). Results and look-up counts are identical either way;
	// the knob exists for ablations and the perf suite's
	// kernel-vs-generic comparison. Ignored by the free functions
	// (which never bind a kernel).
	GenericFinal bool
	// ResultCache, when non-nil, memoises whole diagnosis outcomes on
	// the engine serving path: a *syndrome.Lazy whose fault hypothesis
	// and behaviour were already diagnosed under the same effective
	// fault bound and strategy is answered from the cache without any
	// syndrome consultation, and misses populate it. Results are
	// copied out on every hit (see ResultCache). Grouped batches also
	// keep each hypothesis's shared scan verdict and final prefix in it
	// (see BatchOptions.ShareHypotheses). The free functions
	// ignore the field — they are the paper-literal reference and
	// always recompute.
	ResultCache *ResultCache
	// fastFinal routes the final pass through the engine's serving
	// driver when the syndrome is a *syndrome.Lazy (set by Engine; the
	// free functions keep the reference loop). Output and look-up count
	// are identical either way — see runFinalPass.
	fastFinal bool
	// kernel carries the engine's bound structure kernel into the final
	// pass (see kernel.go); nil for generic topologies.
	kernel wordRounder
	// shared carries a certification verdict computed once per fault
	// hypothesis (see BatchOptions.ShareHypotheses and hypState): the
	// certified part index and the representative's scan footprint.
	// When set, the part scan is skipped entirely — only the final pass
	// consults the syndrome — and the Stats record the shared verdict
	// with CertLookups pinned to 0 (this syndrome spent none).
	shared *sharedScan
	// recordPrefix asks the final pass to record the hypothesis's shared
	// final-prefix checkpoint (set by a grouped DiagnoseBatch on each
	// group representative; see BatchOptions.ShareHypotheses and
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
	// members of a ShareHypotheses group: the growth rounds and
	// syndrome look-ups of the adopted behaviour-independent prefix,
	// which the group representative computed (and whose consultations
	// the representative's Stats carry). For such members FinalLookups
	// counts only the consultations past the checkpoint, so
	// FinalLookups + SharedFinalLookups equals the free-function
	// FinalLookups of the same syndrome.
	SharedFinalRounds  int
	SharedFinalLookups int64

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
	var final *SetBuilderResult
	var resumed *finalPrefix
	if opt.fastFinal {
		if lz, ok := s.(*syndrome.Lazy); ok {
			// Checkpoint plumbing rides on the scratch so the driver
			// sees it without widening its signature. Resume engages
			// only when the checkpoint grew from this call's certified
			// seed — a member without a shared verdict scans for itself,
			// and that scan is behaviour-independent under the grouping
			// guards, so this guard only bites when those guarantees
			// were broken.
			if fp := opt.resumePrefix; fp != nil && fp.valid && fp.u0 == seed {
				sc.prefixRes = fp
				resumed = fp
			}
			sc.prefixRec = opt.recordPrefix
			final = runFinalPass(sc, a, lz, seed, delta, opt.kernel)
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
// O(n)) and neighbour buffer.
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
