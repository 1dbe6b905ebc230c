// Package serve is the diagnosis-as-a-service front end: an HTTP/JSON
// server over the engine stack (core.Engine, campaign.Runtime,
// core.ResultCache) that turns concurrent point requests into the
// grouped batches the shared-certification and shared-final-prefix
// machinery was built for.
//
// The request path is: an engine registry keyed by topology spec
// (lazy bind — hypercubes from their XOR descriptor, every other family
// through its CSR — bounded LRU of bound engines) →
// a per-engine request coalescer (concurrent /v1/diagnose requests
// within a short window become one Engine.DiagnoseBatch call, grouped
// by fault hypothesis) → the engine's persistent worker pool. Answers
// are bit-identical to solo Engine.Diagnose calls by the
// DiagnoseBatch contract; coalescing changes the look-up bill, not
// the verdicts. /v1/campaign streams sweep points as they finish, and
// /metrics exports the whole stack's counters in Prometheus text.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Config tunes a Server. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// RegistryCap bounds the LRU of bound engines (default 8). The
	// least recently used engine is evicted — its worker pool shuts
	// down once in-flight requests drain — when a new spec binds past
	// the cap.
	RegistryCap int
	// Window is the coalescing window: the first diagnose request of a
	// quiet engine waits at most this long for company before its
	// batch flushes (default 2ms). A batch also flushes as soon as
	// MaxBatch distinct requests are pending, so a saturated server
	// never waits out the window.
	Window time.Duration
	// NoCoalesce disables the window entirely: every request is
	// diagnosed the moment it arrives, as a width-1 batch. This is the
	// ablation twin of the servedbatch benchmarks.
	NoCoalesce bool
	// MaxBatch flushes a window early once this many distinct requests
	// are pending (default 64).
	MaxBatch int
	// Workers sizes each engine's persistent worker pool; ≤ 0 means
	// GOMAXPROCS (see campaign.NewRuntime).
	Workers int
	// CacheCap is the per-engine result-cache capacity: 0 means the
	// default (1024 outcomes), negative disables caching.
	CacheCap int
}

const (
	defaultRegistryCap = 8
	defaultWindow      = 2 * time.Millisecond
	defaultMaxBatch    = 64
	defaultCacheCap    = 1024

	// maxRequestBytes caps every request body. A valid request is a
	// topology spec, a few scalars and a short fault list, far below
	// this; a larger body is refused with 413 instead of buffered.
	maxRequestBytes = 1 << 20
)

// Server is the HTTP front end. Create with New, serve via any
// http.Server (it implements http.Handler), stop with Close.
type Server struct {
	cfg Config
	met metrics
	reg *registry

	closed   atomic.Bool
	inflight sync.WaitGroup
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	if cfg.RegistryCap <= 0 {
		cfg.RegistryCap = defaultRegistryCap
	}
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	if cfg.NoCoalesce {
		cfg.Window = 0
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = defaultCacheCap
	}
	s := &Server{cfg: cfg}
	s.met.start = time.Now()
	s.reg = newRegistry(cfg.RegistryCap, s.buildEntry)
	return s
}

// route is a served pattern's handler method. ServeHTTP dispatches a
// request that routes matches to it; ServeMux's own answers (404,
// redirects) are other http.Handler types.
type route func(*Server, http.ResponseWriter, *http.Request)

// ServeHTTP makes a route storable in routes; it is never called, since
// Server.ServeHTTP runs a matched route itself.
func (route) ServeHTTP(w http.ResponseWriter, r *http.Request) { http.NotFound(w, r) }

// routes is the route table, built once per process rather than per
// Server: registering a pattern costs more than the rest of New.
var routes = func() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/v1/diagnose", route((*Server).handleDiagnose))
	mux.Handle("/v1/campaign", route((*Server).handleCampaign))
	mux.Handle("/metrics", route((*Server).handleMetrics))
	mux.Handle("/healthz", route((*Server).handleHealthz))
	return mux
}()

// ServeHTTP implements http.Handler. A request no route matches gets
// ServeMux's own answer: 404, a 301 to the cleaned path, or 400 for
// OPTIONS *. Each handler checks its own methods (405).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h, _ := routes.Handler(r)
	if serve, ok := h.(route); ok {
		serve(s, w, r)
		return
	}
	routes.ServeHTTP(w, r)
}

// Close gracefully drains the server: new requests are refused with
// 503, pending coalescing windows flush immediately so every accepted
// request still receives its response, in-flight handlers (diagnoses
// and campaign streams) run to completion, and then every engine's
// worker pool shuts down. Idempotent.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.reg.drain()
	s.inflight.Wait()
	s.reg.closeAll()
}

// Preload binds a topology spec ahead of traffic (cmd/diagnosed
// -preload): the bind cost is paid at startup instead of on the first
// request. The spec may carry the "implicit:" prefix, which a
// hypercube spec ignores and any other spec is refused for.
func (s *Server) Preload(spec string) error {
	e, err := s.reg.get(normalizeKey(spec))
	if err != nil {
		return err
	}
	e.release()
	return nil
}

// Snapshot copies the service counters — the programmatic form of
// /metrics, used by the integration tests and the loopback benches.
func (s *Server) Snapshot() Snapshot {
	snap := s.met.snapshotCounters()
	for _, e := range s.reg.snapshot() {
		snap.PendingRequests += int64(e.co.pendingCount())
		es := EngineSnapshot{
			Key:      e.key,
			Kernel:   e.eng.KernelName(),
			Delta:    e.eng.Diagnosability(),
			Degraded: e.eng.Degraded(),
			Runtime:  e.rt.Stats(),
		}
		es.Binding, es.AdjacencyBytes = adjacencyFootprint(e.eng)
		if e.cache != nil {
			es.Cache = e.cache.Stats()
			es.HasCache = true
		}
		snap.Engines = append(snap.Engines, es)
	}
	return snap
}

// adjacencyFootprint names how an engine holds its adjacency —
// "descriptor" for a generator, which a network engine over a
// descriptor-backed graph (fq:8, say) serves too, and "csr" for a
// table — and estimates its resident bytes (CayleyAdjacency's
// FootprintBytes, or graph.CSRFootprintBytes of the table).
func adjacencyFootprint(eng *core.Engine) (string, int64) {
	if ca, ok := eng.Adjacency().(*graph.CayleyAdjacency); ok {
		return "descriptor", ca.FootprintBytes()
	}
	g := eng.Graph()
	return "csr", graph.CSRFootprintBytes(g.N(), g.M())
}

// normalizeKey canonicalises a spec so "Q:14", " q:14 " and "q:\t14"
// share one engine: every Unicode space is dropped, a superset of what
// topology.Parse trims from its arguments, so no spelling Parse accepts
// as a hypercube escapes the descriptor binding. Every hypercube spec
// ("q:<n>", "hypercube:<n>", with or without the "implicit:" prefix)
// folds to "q:<n>": hypercubes are always descriptor-bound, so there is
// one entry per hypercube. The prefix stays on any other spec, whose
// bind then refuses it.
func normalizeKey(spec string) string {
	key := strings.ToLower(strings.Join(strings.Fields(spec), ""))
	if n, ok := hypercubeDim(strings.TrimPrefix(key, "implicit:")); ok {
		return "q:" + strconv.Itoa(n)
	}
	return key
}

// registryKey is the registry key of a request's topology and
// Implicit flag.
func registryKey(topology string, implicit bool) string {
	if implicit {
		topology = "implicit:" + topology
	}
	return normalizeKey(topology)
}

// hypercubeDim parses a hypercube spec ("q:<n>" or "hypercube:<n>",
// lower case, no spaces) into its dimension.
func hypercubeDim(spec string) (int, bool) {
	name, arg, ok := strings.Cut(spec, ":")
	if !ok || (name != "q" && name != "hypercube") {
		return 0, false
	}
	n, err := strconv.Atoi(arg)
	return n, err == nil
}

// buildEntry binds the engine for a registry key and assembles its
// serving apparatus (pool, cache, coalescer). Hypercubes bind from
// their XOR descriptor (hypercubeEngine); every other family builds
// its CSR through topology.Parse.
func (s *Server) buildEntry(key string) (*entry, error) {
	spec, implicit := strings.CutPrefix(key, "implicit:")
	var eng *core.Engine
	var err error
	if n, ok := hypercubeDim(spec); ok {
		eng, err = hypercubeEngine(n)
	} else if implicit {
		err = fmt.Errorf("serve: implicit mode supports hypercube specs (q:<n>), got %q", spec)
	} else {
		var nw topology.Network
		nw, err = topology.Parse(spec)
		if err == nil {
			eng = core.NewEngine(nw)
		}
	}
	if err != nil {
		return nil, err
	}
	var cache *core.ResultCache
	if s.cfg.CacheCap > 0 {
		cache = core.NewResultCache(s.cfg.CacheCap)
	}
	rt := campaign.NewRuntime(eng, s.cfg.Workers)
	e := &entry{key: key, eng: eng, cache: cache, rt: rt}
	window := s.cfg.Window
	if s.cfg.NoCoalesce {
		window = 0
	}
	e.co = newCoalescer(eng, rt, cache, window, s.cfg.MaxBatch, &s.met)
	return e, nil
}

// hypercubeEngine binds Q_n (δ = topology.HypercubeDiagnosability(n))
// straight from its XOR descriptor:
// neighbours are generated in ascending order by graph.BasisWalk, so no
// CSR is ever built, Q14 binds in tens of microseconds, and answers,
// Stats and look-up counts are bit-identical to
// core.NewEngine(topology.NewHypercube(n)) — same partition, same
// kernel, same error text (see docs/service.md). Sizes the CSR path
// cannot index (n·2^n arcs beyond MaxInt32, n ≥ 27) are refused with
// graph.CheckInt32Bounds before anything proportional to 2^n is
// allocated, and so is Q2, whose δ is 0.
func hypercubeEngine(n int) (*core.Engine, error) {
	if n < 2 {
		return nil, fmt.Errorf("serve: hypercube needs n ≥ 2, got %d", n)
	}
	// 2^62 stands for every order past it: all are refused alike.
	if err := graph.CheckInt32Bounds(1<<min(n, 62), n); err != nil {
		return nil, fmt.Errorf("serve: q:%d: %w", n, err)
	}
	delta := topology.HypercubeDiagnosability(n)
	if delta < 1 {
		return nil, fmt.Errorf("serve: q:%d is not 1-diagnosable (δ = %d): no fault set is identifiable", n, delta)
	}
	masks := make([]int32, n)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	return core.NewCayleyEngine(graph.XORCayley{Bits: n, Masks: masks}, delta)
}

// DiagnoseRequest is the /v1/diagnose request body.
type DiagnoseRequest struct {
	// Topology is the spec to diagnose against ("q:14", "star:6", ...).
	Topology string `json:"topology"`
	// Implicit asks for descriptor-backed binding. Hypercubes are always
	// descriptor-bound, so it changes nothing for them; any other family
	// is refused with 400.
	Implicit bool `json:"implicit,omitempty"`
	// Faults is the fault hypothesis: node ids presumed faulty.
	Faults []int `json:"faults"`
	// Behavior names the faulty-tester adversary (default "mimic").
	Behavior string `json:"behavior,omitempty"`
	// Seed parameterises the "random" behaviour.
	Seed uint64 `json:"seed,omitempty"`
	// Bound tightens the fault bound below δ (0 = the engine's δ).
	Bound int `json:"bound,omitempty"`
}

// LookupBill itemises the syndrome look-ups of one response. For a
// request served as a shared-prefix group member, Final counts only
// the consultations past the adopted checkpoint and SharedFinal the
// inherited prefix, so Final + SharedFinal equals the solo Diagnose
// FinalLookups of the same syndrome; Cert is 0 for members whose
// certification the group representative carried (see docs/service.md
// for the full accounting contract).
type LookupBill struct {
	Cert        int64 `json:"cert"`
	Final       int64 `json:"final"`
	SharedFinal int64 `json:"shared_final"`
	Total       int64 `json:"total"`
}

// DiagnoseResponse is the /v1/diagnose response body.
type DiagnoseResponse struct {
	Topology       string     `json:"topology"`
	Kernel         string     `json:"kernel"`
	Delta          int        `json:"delta"`
	Degraded       bool       `json:"degraded,omitempty"`
	EffectiveDelta int        `json:"effective_delta,omitempty"`
	Faults         []int      `json:"faults"`
	Lookups        LookupBill `json:"lookups"`
	Seed           int32      `json:"seed"`
	Rounds         int        `json:"rounds"`
	Healthy        int        `json:"healthy"`
	FaultCount     int        `json:"fault_count"`
	PartsScanned   int        `json:"parts_scanned"`
	CertifiedPart  int        `json:"certified_part"`
	BatchWidth     int        `json:"batch_width"`
	Waiters        int        `json:"waiters"`
	Error          string     `json:"error,omitempty"`
}

// begin gates a handler on the drain state. It returns false (and has
// already written 503) when the server is closing.
func (s *Server) begin(w http.ResponseWriter) bool {
	s.inflight.Add(1)
	if s.closed.Load() {
		s.inflight.Done()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeRequest strictly decodes a request body of at most
// maxRequestBytes into v (see decodeObject). On failure it answers the
// request itself — 413 for a body over the cap, whatever it holds, 400
// otherwise — and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	err := decodeObject(body, v)
	var tooBig *http.MaxBytesError
	if err != nil && !errors.As(err, &tooBig) {
		// A body refused before its end may still be over the cap.
		if _, rest := io.Copy(io.Discard, body); errors.As(rest, &tooBig) {
			err = rest
		}
	}
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	default:
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// decodeObject decodes exactly one JSON object from body into v:
// unknown fields are refused, and so is anything but whitespace after
// the object. A read error (such as http.MaxBytesError) is returned
// as is.
func decodeObject(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	// Through an interface a JSON null clears target instead of leaving
	// the struct untouched; an object still decodes through v.
	target := v
	if err := dec.Decode(&target); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err != nil && !errors.As(err, new(*json.SyntaxError)) {
			return err
		}
		return errors.New("trailing data after the request object")
	}
	if target == nil {
		return errors.New("request is not a JSON object")
	}
	return nil
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if !s.begin(w) {
		return
	}
	defer s.inflight.Done()
	s.met.requests.Add(1)
	if r.Method != http.MethodPost {
		s.met.errors.Add(1)
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req DiagnoseRequest
	if !decodeRequest(w, r, &req) {
		s.met.errors.Add(1)
		return
	}
	if req.Topology == "" {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "topology is required")
		return
	}
	behavior, err := syndrome.ParseBehavior(req.Behavior, req.Seed)
	if err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Bound < 0 {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "bound must be ≥ 0")
		return
	}
	ent, err := s.reg.get(registryKey(req.Topology, req.Implicit))
	if err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer ent.release()

	n := ent.eng.Adjacency().N()
	faults := bitset.New(n)
	for _, id := range req.Faults {
		if id < 0 || id >= n {
			s.met.errors.Add(1)
			httpError(w, http.StatusBadRequest, "fault id %d out of range [0, %d)", id, n)
			return
		}
		faults.Add(id)
	}

	ch, err := ent.co.Submit(requestKey(faults, behavior.Name(), req.Seed, req.Bound), faults, behavior, req.Bound)
	if err != nil {
		s.met.errors.Add(1)
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	out := <-ch
	if errors.Is(out.Err, errBatchPanic) {
		s.met.errors.Add(1)
		httpError(w, http.StatusInternalServerError, "%v", out.Err)
		return
	}

	resp := DiagnoseResponse{
		Topology:       req.Topology,
		Kernel:         ent.eng.KernelName(),
		Delta:          out.Stats.Delta,
		Degraded:       out.Stats.Degraded,
		EffectiveDelta: out.Stats.EffectiveDelta,
		Lookups: LookupBill{
			Cert:        out.Stats.CertLookups,
			Final:       out.Stats.FinalLookups,
			SharedFinal: out.Stats.SharedFinalLookups,
			Total:       out.Stats.TotalLookups,
		},
		Seed:          out.Stats.Seed,
		Rounds:        out.Stats.Rounds,
		Healthy:       out.Stats.HealthyCount,
		FaultCount:    out.Stats.FaultCount,
		PartsScanned:  out.Stats.PartsScanned,
		CertifiedPart: out.Stats.CertifiedPart,
		BatchWidth:    out.BatchWidth,
		Waiters:       out.Waiters,
	}
	w.Header().Set("Content-Type", "application/json")
	if out.Err != nil {
		// A diagnosis refusal (fault bound exceeded, no certified part)
		// is a well-formed verdict about the hypothesis, not a server
		// fault: 422 with the typed error's message.
		s.met.errors.Add(1)
		resp.Error = out.Err.Error()
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(resp)
		return
	}
	if out.Faults != nil {
		resp.Faults = out.Faults.Members()
	} else {
		resp.Faults = []int{}
	}
	s.met.responses.Add(1)
	json.NewEncoder(w).Encode(resp)
}

// requestKey identifies a diagnose request up to bit-identical
// outcome: fault hypothesis words, behaviour, behaviour seed, and
// fault bound. Identical concurrent requests coalesce onto one
// diagnosis.
func requestKey(faults *bitset.Set, behaviorName string, seed uint64, bound int) string {
	var b strings.Builder
	words := faults.Words()
	b.Grow(len(words)*16 + len(behaviorName) + 32)
	for _, wd := range words {
		fmt.Fprintf(&b, "%016x", wd)
	}
	fmt.Fprintf(&b, "|%s|%d|%d", behaviorName, seed, bound)
	return b.String()
}

// CampaignRequest is the /v1/campaign request body.
type CampaignRequest struct {
	Topology  string `json:"topology"`
	Implicit  bool   `json:"implicit,omitempty"`
	MinFaults int    `json:"min_faults"`
	MaxFaults int    `json:"max_faults"`
	Trials    int    `json:"trials"`
	Behavior  string `json:"behavior,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
}

// CampaignPoint is one streamed /v1/campaign line (NDJSON).
type CampaignPoint struct {
	Faults     int     `json:"faults"`
	Trials     int     `json:"trials"`
	Exact      int     `json:"exact"`
	Refused    int     `json:"refused"`
	Silent     int     `json:"silent"`
	ExactRate  float64 `json:"exact_rate"`
	SilentRate float64 `json:"silent_rate"`
}

const (
	maxCampaignTrials = 1_000_000
	maxCampaignPoints = 4096
)

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if !s.begin(w) {
		return
	}
	defer s.inflight.Done()
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req CampaignRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Topology == "" {
		httpError(w, http.StatusBadRequest, "topology is required")
		return
	}
	behavior, err := syndrome.ParseBehavior(req.Behavior, uint64(req.Seed))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch {
	case req.Trials < 1 || req.Trials > maxCampaignTrials:
		httpError(w, http.StatusBadRequest, "trials must be in [1, %d]", maxCampaignTrials)
		return
	case req.MinFaults < 0 || req.MaxFaults < req.MinFaults:
		httpError(w, http.StatusBadRequest, "need 0 ≤ min_faults ≤ max_faults")
		return
	case req.MaxFaults-req.MinFaults+1 > maxCampaignPoints:
		httpError(w, http.StatusBadRequest, "at most %d sweep points per job", maxCampaignPoints)
		return
	}
	ent, err := s.reg.get(registryKey(req.Topology, req.Implicit))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer ent.release()
	if n := ent.eng.Adjacency().N(); req.MaxFaults > n {
		httpError(w, http.StatusBadRequest, "max_faults %d exceeds %d nodes", req.MaxFaults, n)
		return
	}

	s.met.campaigns.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	// One SweepRuntime call per fault count: the per-trial seed formula
	// depends only on (Seed, fault count, trial index), so the streamed
	// points are bit-identical to a single whole-range sweep. The sweep
	// stops before the next point once the client is gone: a cancelled
	// context, or a failed write or flush (an HTTP/1.1 body the decoder
	// did not read to EOF never cancels the context).
	for f := req.MinFaults; f <= req.MaxFaults && r.Context().Err() == nil; f++ {
		pts := campaign.SweepRuntime(ent.rt, campaign.Config{
			MinFaults: f, MaxFaults: f,
			Trials:   req.Trials,
			Behavior: behavior,
			Seed:     req.Seed,
			Cache:    ent.cache,
		})
		p := pts[0]
		err := enc.Encode(CampaignPoint{
			Faults: p.Faults, Trials: p.Trials,
			Exact: p.Exact, Refused: p.Refused, Silent: p.Silent,
			ExactRate: p.ExactRate(), SilentRate: p.SilentRate(),
		})
		if err != nil {
			return
		}
		s.met.campaignPoints.Add(1)
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writePrometheus(w, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// residentKeys is a test helper: the resident registry keys, most
// recently used first.
func (s *Server) residentKeys() []string {
	var keys []string
	for _, e := range s.reg.snapshot() {
		keys = append(keys, e.key)
	}
	return keys
}
