package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"comparisondiag/internal/core"
	"comparisondiag/internal/serve"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

const (
	serveSpec  = "q:14"
	serveDelta = 14 // δ = n for Q_n, so every hypothesis is diagnosable exactly
	// sloLimit is the latency a served request must meet, from its due
	// time, to count towards slo_ratio.
	sloLimit = 10 * time.Millisecond
	// maxOpen caps the open-loop requests in flight, below the
	// connection's stream limit.
	maxOpen = 512
	// serveReplays bounds the traced pass's engine replays.
	serveReplays = 2000
	// benchIDHeader carries the request id the handler span is filed
	// under in the traced pass.
	benchIDHeader = "X-Bench-Id"
)

// serveConfig is cmd/diagnosed's default configuration: 2 ms window,
// max batch 64, cache 1024, both sharing flags on.
var serveConfig = serve.Config{Window: 2 * time.Millisecond, MaxBatch: 64, CacheCap: 1024}

func runServeUnique(cfg runConfig, res *result) error { return runServe(cfg, res, false) }
func runServeHot(cfg runConfig, res *result) error    { return runServe(cfg, res, true) }

// serveParams shapes one pass: a warm-up, then segments of an
// open-loop phase at rate followed by a closed-loop phase with clients
// in flight, three quarters of each segment open. Interleaving the
// phases spreads both over the whole run, so a few slow seconds on the
// host do not decide either phase's figure.
type serveParams struct {
	rate               float64
	warm, open, closed time.Duration // open and closed are per segment
	segments           int
	clients            int
}

// serveSegment is the target length of one open+closed segment.
const serveSegment = 4 * time.Second

func serveParamsFor(cfg runConfig, hot bool, d time.Duration) serveParams {
	p := serveParams{rate: 1000, clients: 64, warm: 500 * time.Millisecond}
	if hot {
		p.rate = 2000
	}
	if cfg.quick {
		p.rate /= 5
		p.clients = 8
		p.warm = 100 * time.Millisecond
	}
	p.segments = max(1, int(d/serveSegment))
	seg := d / time.Duration(p.segments)
	p.open = seg * 3 / 4
	p.closed = seg - p.open
	return p
}

// serveInput is one pre-generated /v1/diagnose request and its expected
// answer.
type serveInput struct {
	body   []byte
	want   []int32 // the injected fault set, ascending
	beh    syndrome.Behavior
	repeat bool // an exact repeat of other requests (serve-hot's fixed behaviours)
}

var (
	allBehaviours   = []string{"mimic", "all-zero", "all-one", "inverted", "random"}
	fixedBehaviours = []string{"mimic", "all-zero", "all-one", "inverted"}
)

// serveGen draws requests. serve-unique: a fresh random δ-fault set per
// request, behaviour uniform over the five adversaries (random with a
// fresh seed). serve-hot: one of 8 fixed far-clustered fault sets; half
// the requests use one of 4 fixed behaviours (exact repeats), the other
// half random with a fresh seed (never cached, but sharing certification
// and the final-pass prefix with same-hypothesis batch mates).
type serveGen struct {
	rng      *rand.Rand
	n        int
	clusters [][]int32 // serve-hot only
}

func (g *serveGen) next() (serveInput, error) {
	var in serveInput
	name, seed := "", uint64(0)
	if g.clusters != nil {
		in.want = g.clusters[g.rng.Intn(len(g.clusters))]
		if g.rng.Intn(2) == 0 {
			name, in.repeat = fixedBehaviours[g.rng.Intn(len(fixedBehaviours))], true
		} else {
			name, seed = "random", g.rng.Uint64()
		}
	} else {
		in.want = syndrome.RandomFaults(g.n, serveDelta, g.rng).Members32()
		name = allBehaviours[g.rng.Intn(len(allBehaviours))]
		if name == "random" {
			seed = g.rng.Uint64()
		}
	}
	beh, err := syndrome.ParseBehavior(name, seed)
	if err != nil {
		return in, err
	}
	in.beh = beh
	faults := make([]int, len(in.want))
	for i, v := range in.want {
		faults[i] = int(v)
	}
	in.body, err = json.Marshal(serve.DiagnoseRequest{Topology: serveSpec, Faults: faults, Behavior: name, Seed: seed})
	return in, err
}

func (g *serveGen) take(k int) ([]serveInput, error) {
	out := make([]serveInput, k)
	for i := range out {
		var err error
		if out[i], err = g.next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// farClusters returns k δ-fault clusters (syndrome.ClusterFaults) centred
// on the nodes farthest by BFS from part 0's seed, where the final pass
// starts growing — the repeated-hypothesis shape shared final prefixes
// target.
func farClusters(k int) ([][]int32, error) {
	nw, err := topology.Parse(serveSpec)
	if err != nil {
		return nil, err
	}
	parts, err := core.NewEngine(nw).Parts()
	if err != nil {
		return nil, err
	}
	g := nw.Graph()
	dist := g.BFSFrom(parts[0].Seed, nil)
	var centers []int32
	for want := int32(1 << 30); len(centers) < k; {
		far := int32(-1)
		for _, d := range dist {
			if d < want && d > far {
				far = d
			}
		}
		want = far
		for v := int32(0); int(v) < len(dist) && len(centers) < k; v++ {
			if dist[v] == far {
				centers = append(centers, v)
			}
		}
	}
	out := make([][]int32, k)
	for i, c := range centers {
		out[i] = syndrome.ClusterFaults(g, c, serveDelta).Members32()
	}
	return out, nil
}

// serveInputs are one pass's requests, all generated before the clock.
// openDue[k] is segment k's schedule, due times from the segment start;
// open holds every segment's requests in order.
type serveInputs struct {
	warm, open, closed []serveInput
	warmDue            []time.Duration
	openDue            [][]time.Duration
}

func makeServeInputs(cfg runConfig, hot bool, p serveParams) (*serveInputs, error) {
	gen := &serveGen{rng: rand.New(rand.NewSource(cfg.seed)), n: 1 << serveDelta}
	if hot {
		var err error
		if gen.clusters, err = farClusters(8); err != nil {
			return nil, err
		}
	}
	in := &serveInputs{warmDue: poissonSchedule(cfg.seed+1<<32, p.rate, p.warm)}
	n := 0
	for k := 0; k < p.segments; k++ {
		due := poissonSchedule(cfg.seed+int64(k)<<32+1, p.rate, p.open)
		in.openDue = append(in.openDue, due)
		n += len(due)
	}
	var err error
	if in.open, err = gen.take(n); err != nil {
		return nil, err
	}
	if in.warm, err = gen.take(len(in.warmDue)); err != nil {
		return nil, err
	}
	// The closed phases draw requests in order and wrap around; 8000/s
	// is about twice the saturation rate measured on a 2-CPU host.
	if in.closed, err = gen.take(max(1000, int(8000*p.closed.Seconds())*p.segments)); err != nil {
		return nil, err
	}
	return in, nil
}

// postDiagnose sends one request and decodes the answer. reqID ≥ 0
// stamps it for the traced pass's handler span.
func postDiagnose(lb *loopback, body []byte, reqID int64) (*serve.DiagnoseResponse, error) {
	req, err := http.NewRequest(http.MethodPost, lb.url+"/v1/diagnose", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID >= 0 {
		req.Header.Set(benchIDHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var dr serve.DiagnoseResponse
	err = json.NewDecoder(resp.Body).Decode(&dr)
	io.Copy(io.Discard, resp.Body)
	switch {
	case err != nil:
		return nil, fmt.Errorf("status %d: %w", resp.StatusCode, err)
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, dr.Error)
	}
	return &dr, nil
}

// verifyDiagnosis checks a served answer against the injected fault set.
func verifyDiagnosis(dr *serve.DiagnoseResponse, want []int32) error {
	switch {
	case dr.Degraded || dr.Delta != serveDelta:
		return fmt.Errorf("served δ=%d degraded=%v, want δ=%d healthy", dr.Delta, dr.Degraded, serveDelta)
	case len(dr.Faults) != len(want):
		return fmt.Errorf("%d faults, want %d: %w", len(dr.Faults), len(want), errMismatch)
	}
	for i, v := range want {
		if dr.Faults[i] != int(v) {
			return errMismatch
		}
	}
	return nil
}

// handlerSpans is the traced pass's timing middleware: it files a
// serve.handler span under the request id the client stamped.
func handlerSpans(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(benchIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		next.ServeHTTP(w, r)
		tr.child(id, "serve.handler", start, tr.now())
	})
}

// servePass is what one pass over a fresh server measured.
type servePass struct {
	open            []sample  // every open-loop request, due times from its segment's start
	latP50, latP99  []float64 // per open-loop latency window
	rates           []float64 // per closed-loop rate window
	closedN, failed int64     // closed-loop requests sent; failures of both phases
	before, after   serve.Snapshot
	rt0, rt1        rtCounters
	heapPeak        uint64
	pendingMax      int64
	served          []*serve.DiagnoseResponse // traced pass: the first serveReplays answers
}

func newServer() (*serve.Server, error) {
	srv := serve.New(serveConfig)
	if err := srv.Preload(serveSpec); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

func runServe(cfg runConfig, res *result, hot bool) error {
	srv, setupS, err := measureSetup(newServer, (*serve.Server).Close)
	if err != nil {
		return err
	}
	res.metrics["setup_s"] = setupS
	res.metrics["setup_heap_mb"] = heapMB()

	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	p := serveParamsFor(cfg, hot, d)
	in, err := makeServeInputs(cfg, hot, p)
	if err != nil {
		srv.Close()
		return err
	}
	untraced, err := runServePass(cfg, res, srv, in, p, nil)
	srv.Close()
	if err != nil {
		return err
	}
	serveEndToEnd(res.metrics, untraced)
	checkLag(res, untraced.open)
	if !cfg.trace {
		return nil
	}

	if srv, err = newServer(); err != nil {
		return err
	}
	traced, err := runServePass(cfg, res, srv, in, p, cfg.tr)
	srv.Close()
	if err != nil {
		return err
	}
	m := res.metrics
	servePerLayer(m, untraced, traced, cfg.tr)
	m["loadgen.trace_overhead_ratio"] = ratio(median(traced.latP50), median(untraced.latP50)) - 1
	return replayServed(res, in, traced, cfg.tr)
}

// runServePass drives one fresh server through warm-up, the open-loop
// phase and the closed-loop phase. With tr set it records spans and
// samples the server and heap every 10 ms.
func runServePass(cfg runConfig, res *result, srv *serve.Server, in *serveInputs, p serveParams, tr *tracer) (*servePass, error) {
	var h http.Handler = srv
	if tr != nil {
		h = handlerSpans(srv, tr)
	}
	lb, err := startLoopback(h)
	if err != nil {
		return nil, err
	}
	send := func(x serveInput, reqID int64) (*serve.DiagnoseResponse, error) {
		dr, err := postDiagnose(lb, x.body, reqID)
		if err == nil {
			err = verifyDiagnosis(dr, x.want)
		}
		return dr, err
	}
	openLoop(in.warmDue, maxOpen, func(i int) bool {
		_, err := send(in.warm[i], -1)
		return res.check(err, "warm-up request %d", i)
	})

	pass := &servePass{}
	if tr != nil {
		pass.served = make([]*serve.DiagnoseResponse, min(len(in.open), serveReplays))
	}
	var sampler *poller
	if cfg.trace {
		sampler = startPoller(func() {
			if _, heap := readRuntime(); heap > pass.heapPeak {
				pass.heapPeak = heap
			}
			if tr != nil {
				pass.pendingMax = max(pass.pendingMax, srv.Snapshot().PendingRequests)
			}
		})
	}
	pass.before = srv.Snapshot()
	pass.rt0, _ = readRuntime()
	var cursor atomic.Int64
	base := 0
	for _, due := range in.openDue {
		open := openLoop(due, maxOpen, func(j int) bool {
			i := base + j
			x := in.open[i]
			if tr == nil {
				_, err := send(x, -1)
				return res.check(err, "request %d", i)
			}
			t0 := tr.now()
			dr, err := send(x, int64(i))
			tr.root(int64(i), "loadgen.request", t0, tr.now())
			if err == nil && i < len(pass.served) {
				pass.served[i] = dr
			}
			return res.check(err, "request %d", i)
		})
		base += len(due)
		at := make([]time.Duration, len(open))
		lat := make([]float64, len(open))
		for j, s := range open {
			at[j], lat[j] = s.due, ms(s.latency())
			if !s.ok {
				pass.failed++
			}
		}
		pass.open = append(pass.open, open...)
		pass.latP50 = append(pass.latP50, windowValues(at, lat, p.open, latencyWindow, p50)...)
		pass.latP99 = append(pass.latP99, windowValues(at, lat, p.open, latencyWindow, p99)...)

		done, failed, _ := closedLoop(p.clients, p.closed,
			func() int { return int(cursor.Add(1)-1) % len(in.closed) },
			func(i int) bool {
				_, err := send(in.closed[i], -1)
				return res.check(err, "closed-loop request %d", i)
			})
		pass.closedN += int64(len(done)) + failed
		pass.failed += failed
		pass.rates = append(pass.rates, rateValues(done, p.closed, rateWindow)...)
	}
	pass.rt1, _ = readRuntime()
	pass.after = srv.Snapshot()
	if sampler != nil {
		sampler.stop()
	}
	if conns := lb.close(); conns != 1 {
		res.note("client used %d connections, want 1", conns)
	}
	return pass, nil
}

// maxLag is the generator lateness at the 99th percentile beyond which
// a run is flagged invalid: its latencies then describe the generator as
// much as the server. Go timers wake on a millisecond-granular poller
// and the generator shares the host's CPUs with the server, so a few
// milliseconds of lag under load are expected; latency is measured from
// the due time, so that lag is counted, not hidden.
const maxLag = 5 * time.Millisecond

func checkLag(res *result, open []sample) {
	lag := make([]float64, len(open))
	for i, s := range open {
		lag[i] = ms(s.lag())
	}
	if p99 := percentile(lag, 99); p99 > ms(maxLag) {
		res.note("invalid: generator lag p99 %.3f ms exceeds %v", p99, maxLag)
	}
}

// Window widths for the serve phases: a 1 s open-loop window holds
// about 1000 requests at the lower rate, so its 99th percentile has ten
// samples beyond it.
const (
	latencyWindow = time.Second
	rateWindow    = 500 * time.Millisecond
)

// serveEndToEnd derives the end-to-end metrics of the untraced pass:
// latency of the open-loop phases from due time and throughput of the
// closed-loop phases, each as a median over windows, and the server's
// look-up bill per answer.
func serveEndToEnd(m map[string]float64, p *servePass) {
	m["p50_ms"] = median(p.latP50)
	m["p99_ms"] = median(p.latP99)
	m["throughput_per_s"] = median(p.rates)
	m["lookups_per_diag"] = ratio(float64(p.after.SyndromeLookups-p.before.SyndromeLookups),
		float64(p.after.Responses-p.before.Responses))
}

// servePerLayer derives the loadgen, http, serve and runtime metrics:
// generator lag, SLO share and runtime counters from the untraced pass;
// span pairings and server counters from the traced one.
func servePerLayer(m map[string]float64, untraced, traced *servePass, tr *tracer) {
	lag := make([]float64, len(untraced.open))
	met := 0
	for i, s := range untraced.open {
		lag[i] = ms(s.lag())
		if s.ok && s.latency() <= sloLimit {
			met++
		}
	}
	m["loadgen.lag_p99_ms"] = percentile(lag, 99)
	m["error_ratio"] = ratio(float64(untraced.failed), float64(len(untraced.open))+float64(untraced.closedN))
	m["slo_ratio"] = ratio(float64(met), float64(len(untraced.open)))

	handler := tr.byName("serve.handler")
	client := tr.byName("loadgen.request")
	var hd, overhead []float64
	for req, h := range handler {
		hd = append(hd, ms(h))
		if c, ok := client[req]; ok {
			overhead = append(overhead, ms(c-h))
		}
	}
	m["http.overhead_p50_ms"] = percentile(overhead, 50)
	m["serve.handler_p50_ms"] = percentile(hd, 50)
	m["serve.handler_p99_ms"] = percentile(hd, 99)

	b, a := traced.before, traced.after
	batches := float64(a.Batches - b.Batches)
	widthSum := a.MeanBatchWidth*float64(a.Batches) - b.MeanBatchWidth*float64(b.Batches)
	m["serve.batch_width_mean"] = ratio(widthSum, batches)
	m["serve.pending_max"] = float64(traced.pendingMax)
	m["serve.dedup_ratio"] = ratio(float64(a.DedupHits-b.DedupHits), float64(a.Requests-b.Requests))
	hits, misses := cacheCounts(a)
	hits0, misses0 := cacheCounts(b)
	m["serve.cache_hit_ratio"] = ratio(float64(hits-hits0), float64(hits-hits0+misses-misses0))
	shared := float64(a.SharedFinalLookups - b.SharedFinalLookups)
	m["serve.shared_final_ratio"] = ratio(shared, shared+float64(a.SyndromeLookups-b.SyndromeLookups))
	m["campaign.occupancy"] = occupancy(a)

	answers := float64(untraced.after.Responses - untraced.before.Responses)
	runtimeMetrics(m, untraced.rt0, untraced.rt1, answers, untraced.heapPeak)
}

// runtimeMetrics fills the runtime.* metrics from counter readings
// around a phase that produced diags diagnoses.
func runtimeMetrics(m map[string]float64, r0, r1 rtCounters, diags float64, heapPeak uint64) {
	m["runtime.alloc_bytes_per_diag"] = ratio(float64(r1.allocBytes-r0.allocBytes), diags)
	m["runtime.gc_cpu_ratio"] = ratio(r1.gcCPU-r0.gcCPU, r1.busyCPU-r0.busyCPU)
	m["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
}

func cacheCounts(s serve.Snapshot) (hits, misses int64) {
	for _, e := range s.Engines {
		hits += e.Cache.Hits
		misses += e.Cache.Misses
	}
	return hits, misses
}

func occupancy(s serve.Snapshot) float64 {
	if len(s.Engines) == 0 {
		return 0
	}
	return s.Engines[0].Runtime.Occupancy()
}

// replayServed replays the traced pass's first answers through a fresh
// engine bound to the same spec and checks the served look-up bill
// against the replay: the scan of the parts the answer reports spends
// exactly its certification look-ups, and the replayed final pass spends
// what the answer's final plus inherited shared-prefix look-ups add up
// to. serve.self_p50_ms pairs each handler span with the replayed engine
// time of the same request, skipping exact repeats (cache hits).
func replayServed(res *result, in *serveInputs, traced *servePass, tr *tracer) error {
	eng, parse, bind, err := bindTimes(serveSpec, 5)
	if err != nil {
		return err
	}
	res.metrics["topology.parse_ms"] = ms(parse)
	res.metrics["core.bind_ms"] = ms(bind)
	rp, err := newReplayer(eng)
	if err != nil {
		return err
	}
	defer rp.close()
	handler := tr.byName("serve.handler")
	var self []float64
	for i, dr := range traced.served {
		if dr == nil {
			continue
		}
		x := in.open[i]
		st, err := rp.replay(x.want, x.beh, tr, int64(i))
		if err == nil {
			switch {
			case st.PartsScanned != dr.PartsScanned:
				err = fmt.Errorf("replay scanned %d parts, served %d", st.PartsScanned, dr.PartsScanned)
			case dr.Lookups.Cert != 0 && dr.Lookups.Cert != st.CertLookups:
				err = fmt.Errorf("replay certification look-ups %d, served %d", st.CertLookups, dr.Lookups.Cert)
			case dr.Lookups.Final+dr.Lookups.SharedFinal != st.FinalLookups:
				err = fmt.Errorf("replay final look-ups %d, served %d+%d", st.FinalLookups, dr.Lookups.Final, dr.Lookups.SharedFinal)
			}
		}
		if !res.check(err, "replay of request %d", i) || x.repeat {
			continue
		}
		if h, ok := handler[int64(i)]; ok {
			self = append(self, ms(h-rp.diag[len(rp.diag)-1]))
		}
	}
	rp.report(res.metrics)
	res.metrics["serve.self_p50_ms"] = percentile(self, 50)
	return nil
}
