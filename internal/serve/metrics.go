package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
)

// metrics is the server-wide counter set. Every field is an atomic so
// the /metrics exporter (and Server.Snapshot) can poll concurrently
// with serving without locks or torn reads.
type metrics struct {
	start time.Time

	requests  atomic.Int64 // /v1/diagnose requests accepted
	responses atomic.Int64 // /v1/diagnose 200s written
	errors    atomic.Int64 // /v1/diagnose non-200s (4xx/5xx + diagnosis refusals)

	diagnoses atomic.Int64 // distinct syndromes actually diagnosed
	batches   atomic.Int64 // DiagnoseBatch flushes issued
	coalesced atomic.Int64 // syndromes served in batches of width > 1
	widthSum  atomic.Int64 // Σ batch widths (mean = widthSum/batches)
	widthMax  atomic.Int64 // widest batch observed
	dedup     atomic.Int64 // requests folded onto an identical pending request

	lookups     atomic.Int64 // syndrome look-ups spent by served diagnoses
	sharedFinal atomic.Int64 // look-ups inherited from shared final prefixes

	campaigns      atomic.Int64 // /v1/campaign jobs accepted
	campaignPoints atomic.Int64 // sweep points streamed
}

// noteBatch folds one flushed sub-batch into the counters.
func (m *metrics) noteBatch(width int, lookups, shared int64) {
	m.batches.Add(1)
	m.diagnoses.Add(int64(width))
	m.widthSum.Add(int64(width))
	if width > 1 {
		m.coalesced.Add(int64(width))
	}
	for {
		cur := m.widthMax.Load()
		if int64(width) <= cur || m.widthMax.CompareAndSwap(cur, int64(width)) {
			break
		}
	}
	m.lookups.Add(lookups)
	m.sharedFinal.Add(shared)
}

// Snapshot is a point-in-time copy of the service counters — what
// /metrics renders as Prometheus text. Derived rates are division-by-
// zero safe: a fresh server reports zeros, never NaN.
type Snapshot struct {
	Uptime time.Duration

	Requests, Responses, Errors int64

	// Diagnoses counts distinct syndromes diagnosed; DedupHits counts
	// requests answered by an identical concurrent request's diagnosis.
	Diagnoses, Batches, CoalescedRequests, DedupHits int64
	MaxBatchWidth                                    int64
	MeanBatchWidth                                   float64

	SyndromeLookups    int64
	LookupsPerSecond   float64
	SharedFinalLookups int64

	Campaigns, CampaignPoints int64

	// PendingRequests is the number of requests currently waiting in
	// coalescing windows across all resident engines.
	PendingRequests int64

	// Engines lists the resident registry entries, most recently used
	// first.
	Engines []EngineSnapshot
}

// EngineSnapshot is the per-engine slice of a Snapshot.
type EngineSnapshot struct {
	Key      string
	Kernel   string
	Delta    int
	Degraded bool
	// Binding is "descriptor" for engines that serve a Cayley generator
	// (the XOR-Cayley families, hypercubes included, while no churn has
	// degraded them) and "csr" for engines serving a CSR table;
	// AdjacencyBytes estimates what that adjacency keeps resident.
	Binding        string
	AdjacencyBytes int64
	Cache          core.CacheStats
	HasCache       bool
	Runtime        campaign.RuntimeStats
}

// snapshotCounters fills the scalar half of a Snapshot.
func (m *metrics) snapshotCounters() Snapshot {
	s := Snapshot{
		Uptime:             time.Since(m.start),
		Requests:           m.requests.Load(),
		Responses:          m.responses.Load(),
		Errors:             m.errors.Load(),
		Diagnoses:          m.diagnoses.Load(),
		Batches:            m.batches.Load(),
		CoalescedRequests:  m.coalesced.Load(),
		DedupHits:          m.dedup.Load(),
		MaxBatchWidth:      m.widthMax.Load(),
		SyndromeLookups:    m.lookups.Load(),
		SharedFinalLookups: m.sharedFinal.Load(),
		Campaigns:          m.campaigns.Load(),
		CampaignPoints:     m.campaignPoints.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatchWidth = float64(m.widthSum.Load()) / float64(s.Batches)
	}
	if secs := s.Uptime.Seconds(); secs > 0 {
		s.LookupsPerSecond = float64(s.SyndromeLookups) / secs
	}
	return s
}

// writePrometheus renders the snapshot in the Prometheus text format:
// `# HELP`/`# TYPE` preamble per family, one sample per line, engine
// families labelled by registry key.
func writePrometheus(w io.Writer, s Snapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("diagnosed_uptime_seconds", "Seconds since the server started.", s.Uptime.Seconds())
	counter("diagnosed_requests_total", "Diagnose requests accepted.", s.Requests)
	counter("diagnosed_responses_total", "Diagnose responses served.", s.Responses)
	counter("diagnosed_errors_total", "Diagnose requests refused or failed.", s.Errors)
	counter("diagnosed_diagnoses_total", "Distinct syndromes diagnosed.", s.Diagnoses)
	counter("diagnosed_batches_total", "Coalesced DiagnoseBatch flushes.", s.Batches)
	counter("diagnosed_coalesced_requests_total", "Requests served in batches of width > 1.", s.CoalescedRequests)
	counter("diagnosed_dedup_hits_total", "Requests folded onto an identical pending request.", s.DedupHits)
	gauge("diagnosed_batch_width_max", "Widest coalesced batch observed.", float64(s.MaxBatchWidth))
	gauge("diagnosed_batch_width_mean", "Mean coalesced batch width.", s.MeanBatchWidth)
	counter("diagnosed_syndrome_lookups_total", "Syndrome look-ups spent by served diagnoses.", s.SyndromeLookups)
	gauge("diagnosed_syndrome_lookups_per_second", "Look-up throughput over the server's uptime.", s.LookupsPerSecond)
	counter("diagnosed_shared_final_lookups_total", "Look-ups saved via shared final prefixes.", s.SharedFinalLookups)
	counter("diagnosed_campaigns_total", "Campaign jobs accepted.", s.Campaigns)
	counter("diagnosed_campaign_points_total", "Campaign sweep points streamed.", s.CampaignPoints)
	gauge("diagnosed_pending_requests", "Requests waiting in coalescing windows.", float64(s.PendingRequests))
	gauge("diagnosed_registry_engines", "Engines resident in the registry.", float64(len(s.Engines)))

	labelled := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	if len(s.Engines) > 0 {
		labelled("diagnosed_engine_delta", "Fault bound the engine serves.", "gauge")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_engine_delta{engine=%q,kernel=%q} %d\n", e.Key, e.Kernel, e.Delta)
		}
		labelled("diagnosed_engine_adjacency_bytes", "Estimated resident bytes of the engine's adjacency (CSR arrays or Cayley descriptor).", "gauge")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_engine_adjacency_bytes{engine=%q,binding=%q} %d\n", e.Key, e.Binding, e.AdjacencyBytes)
		}
		labelled("diagnosed_engine_degraded", "1 when the engine serves a churn-degraded binding.", "gauge")
		for _, e := range s.Engines {
			v := 0
			if e.Degraded {
				v = 1
			}
			fmt.Fprintf(w, "diagnosed_engine_degraded{engine=%q} %d\n", e.Key, v)
		}
		labelled("diagnosed_cache_hit_rate", "Result-cache hit rate in [0,1].", "gauge")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_cache_hit_rate{engine=%q} %g\n", e.Key, e.Cache.HitRate())
		}
		labelled("diagnosed_cache_hits_total", "Result-cache hits.", "counter")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_cache_hits_total{engine=%q} %d\n", e.Key, e.Cache.Hits)
		}
		labelled("diagnosed_cache_misses_total", "Result-cache misses.", "counter")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_cache_misses_total{engine=%q} %d\n", e.Key, e.Cache.Misses)
		}
		labelled("diagnosed_cache_entries", "Result-cache resident entries.", "gauge")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_cache_entries{engine=%q} %d\n", e.Key, e.Cache.Entries)
		}
		labelled("diagnosed_cache_evictions_total", "Result-cache evictions.", "counter")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_cache_evictions_total{engine=%q} %d\n", e.Key, e.Cache.Evictions)
		}
		labelled("diagnosed_cache_hypothesis_hits_total", "Hypotheses resumed from a stored scan verdict and final prefix.", "counter")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_cache_hypothesis_hits_total{engine=%q} %d\n", e.Key, e.Cache.HypothesisHits)
		}
		labelled("diagnosed_cache_hypothesis_entries", "Resident hypothesis entries.", "gauge")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_cache_hypothesis_entries{engine=%q} %d\n", e.Key, e.Cache.HypothesisEntries)
		}
		labelled("diagnosed_cache_hypothesis_bytes", "Bytes retained by stored final-prefix checkpoints.", "gauge")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_cache_hypothesis_bytes{engine=%q} %d\n", e.Key, e.Cache.HypothesisBytes)
		}
		labelled("diagnosed_runtime_workers", "Persistent runtime workers bound to the engine.", "gauge")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_runtime_workers{engine=%q} %d\n", e.Key, e.Runtime.Workers)
		}
		labelled("diagnosed_runtime_jobs_total", "Completed runtime jobs.", "counter")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_runtime_jobs_total{engine=%q} %d\n", e.Key, e.Runtime.Jobs)
		}
		labelled("diagnosed_runtime_trials_total", "Trials executed across the engine's workers.", "counter")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_runtime_trials_total{engine=%q} %d\n", e.Key, e.Runtime.TotalTrials())
		}
		labelled("diagnosed_runtime_worker_occupancy", "Fraction of workers that have executed a trial.", "gauge")
		for _, e := range s.Engines {
			fmt.Fprintf(w, "diagnosed_runtime_worker_occupancy{engine=%q} %g\n", e.Key, e.Runtime.Occupancy())
		}
	}
}
