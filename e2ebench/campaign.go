package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/serve"
	"comparisondiag/internal/syndrome"
)

const (
	campaignBits = 18 // implicit Q18: 262,144 nodes, δ = 18
	campaignMinF = 16
	campaignMaxF = 18
	// campaignReplays bounds the trials replayed through a client-side
	// engine for the look-up count and the core breakdown.
	campaignReplays = 48
	// campaignWindow holds about six requests; latency percentiles are
	// medians over windows, so one slow stretch of host time moves one
	// window's figure.
	campaignWindow = 5 * time.Second
)

func campaignTrials(cfg runConfig) int {
	if cfg.quick {
		return 8
	}
	return 64
}

// campaignSeed is request i's campaign seed.
func campaignSeed(runSeed int64, i int) int64 { return runSeed*1000 + int64(i) }

func newCampaignServer() (*serve.Server, error) {
	srv := serve.New(serveConfig)
	if err := srv.Preload("implicit:q:" + strconv.Itoa(campaignBits)); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// campaignPass is what one closed-loop pass measured.
type campaignPass struct {
	requests           int
	sentAt             []time.Duration // request sends, from the pass start
	latency, gaps, lag []time.Duration
	rate               []float64 // per verified request: trials per second
	trials             int64
	rt0, rt1           rtCounters
	heapPeak           uint64
	occupancy          float64
}

func runCampaign(cfg runConfig, res *result) error {
	srv, setupS, err := measureSetup(newCampaignServer, (*serve.Server).Close)
	if err != nil {
		return err
	}
	res.metrics["setup_s"] = setupS
	res.metrics["setup_heap_mb"] = heapMB()

	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	// Bodies for more requests than a pass can send, generated before
	// the clock; request i carries campaign seed runSeed×1000+i in every
	// pass, so the traced pass repeats the untraced one.
	bodies := make([][]byte, 1000)
	for i := range bodies {
		bodies[i], err = json.Marshal(serve.CampaignRequest{
			Topology: "q:" + strconv.Itoa(campaignBits), Implicit: true,
			MinFaults: campaignMinF, MaxFaults: campaignMaxF,
			Trials: campaignTrials(cfg), Behavior: "random", Seed: campaignSeed(cfg.seed, i),
		})
		if err != nil {
			srv.Close()
			return err
		}
	}
	untraced, err := runCampaignPass(cfg, res, srv, bodies, d, nil)
	srv.Close()
	if err != nil {
		return err
	}
	m := res.metrics
	lat := msAll(untraced.latency)
	m["p50_ms"] = windowMedian(untraced.sentAt, lat, d, campaignWindow, p50)
	m["p99_ms"] = windowMedian(untraced.sentAt, lat, d, campaignWindow, p99)
	m["throughput_per_s"] = median(untraced.rate)

	var traced *campaignPass
	replayed := untraced.requests
	if cfg.trace {
		if srv, err = newCampaignServer(); err != nil {
			return err
		}
		traced, err = runCampaignPass(cfg, res, srv, bodies, d, cfg.tr)
		srv.Close()
		if err != nil {
			return err
		}
		replayed = min(replayed, traced.requests)
	}

	// The service reports no look-up counts for campaigns: replay the
	// first trials of every sweep point, request by request, through an
	// identical engine.
	eng, bind, err := implicitEngine()
	if err != nil {
		return err
	}
	rp, err := newReplayer(eng)
	if err != nil {
		return err
	}
	defer rp.close()
	replayCampaign(cfg, res, rp, replayed, cfg.tr)
	m["lookups_per_diag"] = ratio(float64(rp.certLookups+rp.finalLks), float64(len(rp.diag)))
	if !cfg.trace {
		return nil
	}

	m["loadgen.trace_overhead_ratio"] = ratio(windowMedian(traced.sentAt, msAll(traced.latency), d, campaignWindow, p50), m["p50_ms"]) - 1
	// A closed loop has no schedule to fall behind; its lag is the
	// generator's own gap between one answer and the next request.
	m["loadgen.lag_p99_ms"] = percentile(msAll(untraced.lag), 99)
	m["error_ratio"] = ratio(float64(res.failed.Load()), float64(res.attempted.Load()))
	m["campaign.request_p50_ms"] = percentile(msAll(traced.latency), 50)
	m["campaign.point_gap_p50_ms"] = percentile(msAll(traced.gaps), 50)
	m["campaign.occupancy"] = traced.occupancy
	handler := cfg.tr.byName("serve.handler")
	client := cfg.tr.byName("loadgen.request")
	var hd, overhead []float64
	for req, h := range handler {
		hd = append(hd, ms(h))
		overhead = append(overhead, ms(client[req]-h))
	}
	m["serve.handler_p50_ms"] = percentile(hd, 50)
	m["serve.handler_p99_ms"] = percentile(hd, 99)
	m["http.overhead_p50_ms"] = percentile(overhead, 50)
	runtimeMetrics(m, untraced.rt0, untraced.rt1, float64(untraced.trials), untraced.heapPeak)
	m["core.bind_ms"] = ms(bind)
	rp.report(m)
	return nil
}

// implicitEngine binds the descriptor-backed Q18 engine the service
// binds for "implicit:q:18", five times, and returns the last one with
// the median bind time.
func implicitEngine() (*core.Engine, time.Duration, error) {
	masks := make([]int32, campaignBits)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	var eng *core.Engine
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		eng, err = core.NewCayleyEngine(graph.XORCayley{Bits: campaignBits, Masks: masks}, campaignBits)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return eng, time.Duration(percentile(times, 50)), nil
}

// runCampaignPass sends campaign requests back to back, one at a time,
// until d has passed, verifying every streamed sweep point.
func runCampaignPass(cfg runConfig, res *result, srv *serve.Server, bodies [][]byte, d time.Duration, tr *tracer) (*campaignPass, error) {
	var h http.Handler = srv
	if tr != nil {
		h = handlerSpans(srv, tr)
	}
	lb, err := startLoopback(h)
	if err != nil {
		return nil, err
	}
	trials := campaignTrials(cfg)
	points := int64(campaignMaxF - campaignMinF + 1)
	pass := &campaignPass{}
	// One small request first, outside the measurement, so the workers'
	// scratches are drawn and their pages touched before the clock.
	warm, err := json.Marshal(serve.CampaignRequest{
		Topology: "q:" + strconv.Itoa(campaignBits), Implicit: true,
		MinFaults: campaignMinF, MaxFaults: campaignMaxF,
		Trials: 8, Behavior: "random", Seed: campaignSeed(cfg.seed, len(bodies)),
	})
	if err != nil {
		lb.close()
		return nil, err
	}
	_, err = postCampaign(lb, warm, -1, 8)
	res.checkN(points*8, err, "warm-up campaign")

	var sampler *poller
	if cfg.trace {
		sampler = startPoller(func() {
			if _, heap := readRuntime(); heap > pass.heapPeak {
				pass.heapPeak = heap
			}
		})
	}

	pass.rt0, _ = readRuntime()
	start := time.Now()
	done := start
	for i := 0; time.Since(start) < d && i < len(bodies); i++ {
		var t0 int64
		reqID := int64(-1)
		if tr != nil {
			t0, reqID = tr.now(), int64(i)
		}
		sent := time.Now()
		if i > 0 {
			pass.lag = append(pass.lag, sent.Sub(done))
		}
		gaps, err := postCampaign(lb, bodies[i], reqID, trials)
		done = time.Now()
		if tr != nil {
			tr.root(int64(i), "loadgen.request", t0, tr.now())
		}
		pass.sentAt = append(pass.sentAt, sent.Sub(start))
		pass.latency = append(pass.latency, done.Sub(sent))
		pass.gaps = append(pass.gaps, gaps...)
		if res.checkN(points*int64(trials), err, "campaign request %d", i) {
			pass.trials += points * int64(trials)
			pass.rate = append(pass.rate, float64(points)*float64(trials)/done.Sub(sent).Seconds())
		}
		pass.requests++
	}
	pass.rt1, _ = readRuntime()
	if sampler != nil {
		sampler.stop()
	}
	pass.occupancy = occupancy(srv.Snapshot())
	if conns := lb.close(); conns != 1 {
		res.note("client used %d connections, want 1", conns)
	}
	return pass, nil
}

// postCampaign sends one campaign request, reads the NDJSON stream and
// checks every point: within δ every trial must be diagnosed exactly.
// It returns the arrival gaps of the streamed lines, the first measured
// from the send.
func postCampaign(lb *loopback, body []byte, reqID int64, trials int) ([]time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, lb.url+"/v1/campaign", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID >= 0 {
		req.Header.Set(benchIDHeader, strconv.FormatInt(reqID, 10))
	}
	last := time.Now()
	resp, err := lb.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	var gaps []time.Duration
	for f := campaignMinF; f <= campaignMaxF; f++ {
		var pt serve.CampaignPoint
		if err := dec.Decode(&pt); err != nil {
			return gaps, fmt.Errorf("point f=%d: %w", f, err)
		}
		now := time.Now()
		gaps = append(gaps, now.Sub(last))
		last = now
		if pt.Faults != f || pt.Trials != trials || pt.Exact != trials {
			return gaps, fmt.Errorf("point f=%d: got f=%d trials=%d exact=%d refused=%d silent=%d", f, pt.Faults, pt.Trials, pt.Exact, pt.Refused, pt.Silent)
		}
	}
	if err := dec.Decode(new(serve.CampaignPoint)); !errors.Is(err, io.EOF) {
		return gaps, fmt.Errorf("stream did not end after f=%d: %v", campaignMaxF, err)
	}
	return gaps, nil
}

// replayCampaign re-diagnoses the first two trials of every sweep point
// of the first requests, up to campaignReplays, exactly as the service's
// campaign sweep generated them.
func replayCampaign(cfg runConfig, res *result, rp *replayer, requests int, tr *tracer) {
	rng := rand.New(rand.NewSource(0))
	replayed := 0
	for i := 0; i < requests && replayed < campaignReplays; i++ {
		seed := campaignSeed(cfg.seed, i)
		beh := syndrome.Random{Seed: uint64(seed)}
		for f := campaignMinF; f <= campaignMaxF; f++ {
			for t := 0; t < 2 && t < campaignTrials(cfg); t++ {
				// The per-trial seed formula of campaign.SweepRuntime.
				rng.Seed(seed + int64(f)*1_000_003 + int64(t))
				F := syndrome.RandomFaults(1<<campaignBits, f, rng)
				_, err := rp.replay(F.Members32(), beh, tr, int64(i))
				res.check(err, "replay of campaign %d f=%d trial %d", i, f, t)
				replayed++
			}
		}
	}
}
