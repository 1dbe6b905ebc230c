// Package campaign runs Monte-Carlo fault-injection campaigns against
// the diagnosis algorithms. Its purpose is the question the paper's
// guarantee leaves open: what happens when the number of faults
// *exceeds* the diagnosability bound δ? The partition procedure then
// loses its certificate — the interesting distinction is between
// failing loudly (a typed error) and failing silently (a wrong fault
// set with no warning), and where each regime begins.
package campaign

import (
	"errors"

	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Outcome classifies one diagnosis attempt.
type Outcome int

const (
	// Exact: the returned fault set equals the injected one.
	Exact Outcome = iota
	// Refused: the algorithm returned a typed error instead of a guess
	// (the desired behaviour beyond the guarantee).
	Refused
	// Silent: the algorithm returned a wrong fault set without error —
	// the dangerous regime.
	Silent
)

// Point aggregates the outcomes at one fault count.
type Point struct {
	Faults  int
	Trials  int
	Exact   int
	Refused int
	Silent  int
}

// ExactRate returns the fraction of exact diagnoses, 0 for an empty
// point (never NaN — rates are exported over JSON, which rejects NaN).
func (p Point) ExactRate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Exact) / float64(p.Trials)
}

// SilentRate returns the fraction of silent misdiagnoses, 0 for an
// empty point.
func (p Point) SilentRate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Silent) / float64(p.Trials)
}

// Config tunes a sweep.
type Config struct {
	// MinFaults..MaxFaults is the sweep range (inclusive).
	MinFaults, MaxFaults int
	// Trials per fault count.
	Trials int
	// Behavior of faulty testers; nil = the mimic adversary.
	Behavior syndrome.Behavior
	// Seed makes the campaign reproducible.
	Seed int64
	// Workers parallelises trials; ≤ 0 means GOMAXPROCS, and requests
	// above it are clamped (core.ClampWorkers). Ignored by
	// SweepRuntime, whose pool fixes the parallelism.
	Workers int
	// Cache, when non-nil, short-circuits repeated syndromes through
	// the engine-level result cache (core.ResultCache): the low-fault
	// end of a sweep repeats hypotheses constantly (every f = 0 trial
	// is the same empty hypothesis), and replaying those outcomes
	// skips their diagnosis entirely. Sweep outcomes are identical
	// with or without a cache.
	Cache *core.ResultCache
	// OnEngine, when non-nil, receives the engine Sweep binds, once,
	// before the first trial — an observability hook so campaign
	// reports can attribute results to the serving configuration
	// (e.g. record Engine.KernelName()). The callback must not retain
	// scratches or mutate the engine.
	OnEngine func(*core.Engine)
}

// Sweep runs the campaign against the network through a core.Engine
// and a persistent Runtime bound once per sweep: the partition is
// built a single time, the worker pool outlives every sweep point
// (no per-point goroutine spawning), every worker borrows a scratch per
// sweep point, and each worker creates its PRNG on its first trial and
// reseeds it on every later one instead of constructing one — the
// steady-state trial loop allocates only the fault set and syndrome of
// the trial itself.
//
// Callers that run several sweeps against one network should bind the
// runtime themselves (core.NewEngine + NewRuntime) and call
// SweepRuntime so the pool is shared across campaigns.
func Sweep(nw topology.Network, cfg Config) []Point {
	eng := core.NewEngine(nw)
	if cfg.OnEngine != nil {
		cfg.OnEngine(eng)
	}
	rt := NewRuntime(eng, cfg.Workers)
	defer rt.Close()
	return SweepRuntime(rt, cfg)
}

// SweepRuntime is Sweep against a caller-owned Runtime and its bound
// engine. Trials are dealt to the pool in chunks by trial index and
// every trial reseeds its worker's PRNG from (Seed, fault count,
// index), so the points are bit-identical to a sequential loop —
// worker count and scheduling cannot change an outcome. Implicit
// (descriptor-backed) engines are served like CSR ones; an engine with
// no usable partition campaigns the verification fallback on its own
// bound adjacency, with no CSR built. Config.Workers and
// Config.OnEngine are ignored here: the runtime fixes both.
func SweepRuntime(rt *Runtime, cfg Config) []Point {
	if cfg.Behavior == nil {
		cfg.Behavior = syndrome.Mimic{}
	}
	eng := rt.Engine()
	adj := eng.Adjacency()
	n := adj.N()
	delta := eng.Diagnosability()
	perr := eng.PartsErr()

	var points []Point
	results := make([]Outcome, cfg.Trials)
	for f := cfg.MinFaults; f <= cfg.MaxFaults; f++ {
		p := Point{Faults: f, Trials: cfg.Trials}
		rt.Run(cfg.Trials, func(w *Worker, i int) {
			// Per-trial deterministic seed, independent of which worker
			// claimed the trial.
			rng := w.Rand(cfg.Seed + int64(f)*1_000_003 + int64(i))
			F := syndrome.RandomFaults(n, f, rng)
			s := syndrome.NewLazy(F, cfg.Behavior)
			if perr != nil {
				// No partition: campaign the verification path.
				got, err := core.DiagnoseWithVerification(adj, delta, s)
				results[i] = classify(got != nil && got.Equal(F), err)
				return
			}
			opt := core.Options{Scratch: w.Scratch, ResultCache: cfg.Cache}
			got, _, err := eng.DiagnoseOpts(s, opt)
			results[i] = classify(got != nil && got.Equal(F), err)
		})
		for _, o := range results {
			switch o {
			case Exact:
				p.Exact++
			case Refused:
				p.Refused++
			default:
				p.Silent++
			}
		}
		points = append(points, p)
	}
	return points
}

func classify(exact bool, err error) Outcome {
	switch {
	case err == nil && exact:
		return Exact
	case err != nil && isTypedRefusal(err):
		return Refused
	case err != nil:
		// Unexpected error kinds also count as refusals: the caller was
		// warned.
		return Refused
	default:
		return Silent
	}
}

func isTypedRefusal(err error) bool {
	return errors.Is(err, core.ErrNoHealthyPart) ||
		errors.Is(err, core.ErrTooManyFaults) ||
		errors.Is(err, core.ErrNoConsistentCandidate) ||
		errors.Is(err, topology.ErrNoPartition)
}
