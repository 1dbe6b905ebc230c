package distsim

import (
	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// CollectServer is the persistent form of RunCentralCollect: a centre
// that serves many collection waves against one fixed graph. It binds
// the sequential diagnosis once (core.NewGraphEngine with the given
// partition) and owns a campaign.Runtime, so replayed syndromes are
// diagnosed on the same persistent worker pool every other batch entry
// point uses — and, with a result cache, repeated syndromes (the
// distsim replay workload: re-collecting a mostly unchanged system
// state wave after wave) skip the central computation entirely. Only
// the network cost of each collection wave is always paid; that is the
// protocol's point.
type CollectServer struct {
	g         *graph.Graph
	delta     int
	parts     []topology.Part
	eng       *core.Engine
	rt        *campaign.Runtime
	maxRounds int
}

// NewCollectServer binds a central-collection server. workers sizes the
// runtime pool (≤ 0 means GOMAXPROCS, clamped); maxRounds bounds each
// collection wave like RunCentralCollect's parameter.
func NewCollectServer(g *graph.Graph, delta int, parts []topology.Part, workers, maxRounds int) *CollectServer {
	eng := core.NewGraphEngine(g, delta, parts)
	return &CollectServer{
		g: g, delta: delta, parts: parts, eng: eng,
		rt:        campaign.NewRuntime(eng, workers),
		maxRounds: maxRounds,
	}
}

// Runtime exposes the server's persistent pool (observability:
// worker-stat snapshots; sharing with other drivers).
func (cs *CollectServer) Runtime() *campaign.Runtime { return cs.rt }

// Close drains the pool. The server must not be used afterwards.
func (cs *CollectServer) Close() { cs.rt.Close() }

// ReplayResult is one wave's outcome: the collection ledger plus the
// central diagnosis.
type ReplayResult struct {
	// Faults is the centrally diagnosed fault set (caller-owned).
	Faults *bitset.Set
	// Net is the BSP cost ledger of this wave's collection.
	Net Stats
	// Diag is the central diagnosis cost profile.
	Diag core.Stats
	// Err reports a failed wave (round limit) or diagnosis.
	Err error
}

// ReplayBatch runs one collection wave per syndrome — every node
// performs its complete test set and the results convergecast to node
// 0 — and then diagnoses all collected syndromes centrally through the
// persistent runtime in one batch. cache, when non-nil, short-circuits
// syndromes whose hypothesis and behaviour were already served (their
// waves still pay the full network ledger: the centre cannot know a
// syndrome repeats until it has collected it). The replay workload
// re-collects mostly unchanged system states wave after wave, so
// hypothesis grouping (BatchOptions.ShareHypotheses) lets the centre
// certify once and regrow the
// behaviour-independent final prefix once per repeated hypothesis.
// opt.Pool and opt.Options.ResultCache are superseded by the server's
// runtime and the cache argument.
//
// results[i] corresponds to syns[i]; the syndromes must be distinct
// values even when they encode the same hypothesis (each is driven
// concurrently during its wave and by one batch worker after).
func (cs *CollectServer) ReplayBatch(syns []syndrome.Syndrome, cache *core.ResultCache, opt core.BatchOptions) []ReplayResult {
	out := make([]ReplayResult, len(syns))
	// Collected is the index list of waves that completed: a wave that
	// exceeded the round budget has no centrally assembled syndrome, so
	// it gets no diagnosis (and burns no batch work or cache slot).
	var collected []int
	var toDiagnose []syndrome.Syndrome
	for i, s := range syns {
		e := NewEngine(cs.g, 0)
		c := NewCentralCollect(e, cs.g, s)
		st, err := e.Run(c, cs.maxRounds)
		if st != nil {
			out[i].Net = *st
		}
		out[i].Err = err
		if err == nil {
			collected = append(collected, i)
			toDiagnose = append(toDiagnose, s)
		}
	}
	opt.Options.ResultCache = cache
	batch := cs.rt.DiagnoseBatch(toDiagnose, opt)
	for k, r := range batch {
		i := collected[k]
		out[i].Faults = r.Faults
		out[i].Diag = r.Stats
		out[i].Err = r.Err
	}
	return out
}

// FaultyReplayResult is one wave's outcome under fault injection.
type FaultyReplayResult struct {
	// Faults is the diagnosed fault set in the server graph's id space
	// (degraded diagnoses are mapped back from the survivor).
	Faults *bitset.Set
	// Missing lists the sources whose test vectors never reached the
	// centre (ascending, server-graph ids). Empty for a full wave.
	Missing []int32
	// Degraded reports a partial-syndrome wave: the diagnosis covers
	// only the surviving component, under EffectiveDelta.
	Degraded       bool
	EffectiveDelta int
	// Net is the wave's BSP cost ledger (zero if the wave exhausted
	// the round budget — the run keeps no partial network accounting).
	Net Stats
	// Inject and Events are the wave's fault-injection ledger.
	Inject FaultStats
	Events []FaultEvent
	// Diag is the central diagnosis cost profile.
	Diag core.Stats
	// Err reports a failed diagnosis (or a collection that timed out
	// AND could not be degraded). A round-limited collection alone is
	// not an error: the wave degrades to whatever was collected.
	Err error
}

// remappedSyndrome presents the centre's view of a partial collection:
// tests among surviving nodes, addressed in survivor ids, answered by
// the original syndrome through the id map. It is deliberately not a
// *syndrome.Lazy, so the diagnosis engine serves it on its generic
// (kernel-free, cache-free) path.
type remappedSyndrome struct {
	inner    syndrome.Syndrome
	newToOld []int32
}

func (r remappedSyndrome) Test(u, v, w int32) int {
	return r.inner.Test(r.newToOld[u], r.newToOld[v], r.newToOld[w])
}
func (r remappedSyndrome) Lookups() int64 { return r.inner.Lookups() }
func (r remappedSyndrome) ResetLookups()  { r.inner.ResetLookups() }

// ReplayFaulty is ReplayBatch under a network fault plan: each wave collects
// through ResilientCollect (stop-and-wait hop acks, timeout
// retransmission with exponential backoff, bounded by retries) on an
// engine armed with the plan. Waves that still collect every source are
// diagnosed exactly like ReplayBatch (batched through the runtime, cache
// honoured). Waves with missing sources degrade instead of failing:
// the missing nodes are removed from the server graph, a Survivor
// engine is derived for the surviving component (see core.Engine), and
// the partial syndrome is diagnosed there — the result maps back to
// server ids and is flagged Degraded with the survivor's δ′. Each wave
// arms a fresh engine with the same plan, so a wave's injection
// schedule depends only on the plan seed and the traffic: replaying
// the same syndromes under the same plan reproduces every result —
// fault sets, ledgers, events — bit-identically.
func (cs *CollectServer) ReplayFaulty(syns []syndrome.Syndrome, plan *FaultPlan, retries int, cache *core.ResultCache) []FaultyReplayResult {
	return cs.replayWaves(syns, retries, cache, func(e *Engine, _ int) { e.SetFaultPlan(plan) })
}

// ReplayRecovering is ReplayFaulty on the campaign's global round axis
// with a recovery plan: wave w spans global rounds
// [w*maxRounds, (w+1)*maxRounds), Crash.Round and Rejoin.Round are
// global, and each wave is armed with the plan translated into its own
// round window — a node crashed in an earlier wave arrives already
// down, one that rejoined earlier never crashes at all, and one whose
// rejoin lands mid-wave comes back mid-collection. Early waves can
// therefore serve degraded diagnoses and later waves upgrade to full
// diagnosis as nodes re-join, on the same server, mid-campaign. With
// every crash at round 0 and no rejoins the translation is the
// identity, and the run is bit-identical to ReplayFaulty.
func (cs *CollectServer) ReplayRecovering(syns []syndrome.Syndrome, plan *FaultPlan, rec *RecoveryPlan, retries int, cache *core.ResultCache) []FaultyReplayResult {
	rejoinAt := map[int32]int{}
	if rec != nil {
		for _, rj := range rec.Rejoins {
			if cur, ok := rejoinAt[rj.Node]; !ok || rj.Round < cur {
				rejoinAt[rj.Node] = rj.Round
			}
		}
	}
	return cs.replayWaves(syns, retries, cache, func(e *Engine, wave int) {
		wavePlan := *plan
		wavePlan.Crashes = nil
		var waveRec RecoveryPlan
		base := wave * cs.maxRounds
		for _, c := range plan.Crashes {
			eff := c.Round - base
			if eff > cs.maxRounds {
				continue // crashes in a later wave
			}
			if eff < 0 {
				eff = 0 // went down in an earlier wave; already out
			}
			if rj, ok := rejoinAt[c.Node]; ok {
				rjEff := rj - base
				if rjEff <= eff {
					continue // rejoined before this wave saw it down
				}
				wavePlan.Crashes = append(wavePlan.Crashes, Crash{Node: c.Node, Round: eff})
				if rjEff <= cs.maxRounds {
					waveRec.Rejoins = append(waveRec.Rejoins, Rejoin{Node: c.Node, Round: rjEff})
				}
			} else {
				wavePlan.Crashes = append(wavePlan.Crashes, Crash{Node: c.Node, Round: eff})
			}
		}
		e.SetFaultPlan(&wavePlan)
		e.SetRecoveryPlan(&waveRec)
	})
}

// replayWaves is the loop behind ReplayFaulty and ReplayRecovering:
// each wave collects through ResilientCollect on a fresh engine that
// arm(e, wave) has armed, waves with missing sources degrade onto the
// surviving component, and the full waves are diagnosed centrally in
// one batch through the runtime (cache honoured).
func (cs *CollectServer) replayWaves(syns []syndrome.Syndrome, retries int, cache *core.ResultCache, arm func(e *Engine, wave int)) []FaultyReplayResult {
	out := make([]FaultyReplayResult, len(syns))
	var fullIdx []int
	var fullSyns []syndrome.Syndrome
	for i, s := range syns {
		e := NewEngine(cs.g, 0)
		arm(e, i)
		rc := NewResilientCollect(e, cs.g, s, retries)
		// A round-limited run degrades like a lossy one: every source
		// that did arrive is usable, so the error is deliberately not
		// recorded.
		if st, _ := e.Run(rc, cs.maxRounds); st != nil {
			out[i].Net = *st
		}
		out[i].Inject = e.FaultStats()
		out[i].Events = e.FaultEvents()
		out[i].Missing = rc.Missing()
		if len(out[i].Missing) == 0 {
			fullIdx = append(fullIdx, i)
			fullSyns = append(fullSyns, s)
			continue
		}
		cs.degradedWave(&out[i], s)
	}
	batch := cs.rt.DiagnoseBatch(fullSyns, core.BatchOptions{Options: core.Options{ResultCache: cache}})
	for k, r := range batch {
		i := fullIdx[k]
		out[i].Faults = r.Faults
		out[i].Diag = r.Stats
		out[i].Err = r.Err
	}
	return out
}

// degradedWave diagnoses a partial collection on the surviving
// component and maps the verdict back to server ids.
func (cs *CollectServer) degradedWave(r *FaultyReplayResult, s syndrome.Syndrome) {
	r.Degraded = true
	rr := cs.g.RemoveNodes(r.Missing)
	surv, rep, err := cs.eng.Survivor(rr)
	if err != nil {
		r.Err = err
		return
	}
	r.EffectiveDelta = rep.EffectiveDelta
	faults, st, err := surv.Diagnose(remappedSyndrome{inner: s, newToOld: rr.NewToOld})
	if st != nil {
		r.Diag = *st
	}
	if err != nil {
		r.Err = err
		return
	}
	mapped := bitset.New(cs.g.N())
	faults.ForEach(func(i int) bool {
		mapped.Add(int(rr.NewToOld[i]))
		return true
	})
	r.Faults = mapped
}
