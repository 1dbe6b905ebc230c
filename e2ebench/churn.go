package main

import (
	"fmt"
	"math/rand"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

const (
	churnSpec      = "q:14"
	churnDelta     = 14
	churnRemove    = 16 // nodes removed per cycle
	churnBatchSize = 16 // syndromes per DiagnoseBatch call
	churnReplays   = 500
	// churnWindow holds about 1000 batches, so each window's 99th
	// percentile has ten samples beyond it.
	churnWindow = 5 * time.Second
)

// churnParams shapes one pass: cycles of remove → rebind → batches →
// restore → rebind → batches, until d has passed or, when cycles > 0,
// for exactly that many cycles.
type churnParams struct {
	batches int // DiagnoseBatch calls per half cycle
	d       time.Duration
	cycles  int
}

// churnBench is the system under test: an engine and the persistent
// worker pool its batches run on.
type churnBench struct {
	eng          *core.Engine
	rt           *campaign.Runtime
	parse, bind  time.Duration
	kernel       string
	healthyNodes int
}

func newChurnBench() (*churnBench, error) {
	t0 := time.Now()
	nw, err := topology.Parse(churnSpec)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	eng := core.NewEngine(nw)
	t2 := time.Now()
	if err := eng.PartsErr(); err != nil {
		return nil, err
	}
	return &churnBench{
		eng: eng, rt: campaign.NewRuntime(eng, 0),
		parse: t1.Sub(t0), bind: t2.Sub(t1),
		kernel: eng.KernelName(), healthyNodes: eng.Graph().N(),
	}, nil
}

func (b *churnBench) close() { b.rt.Close() }

// churnPass is what one pass measured. busy is the time spent inside
// the timed calls; generating and checking syndromes happens outside it.
type churnPass struct {
	start                time.Time
	batch                [2][]time.Duration // [healthy, degraded]
	batchAt              []time.Duration    // every batch's start, from the pass start
	batchMs              []float64          // every batch's duration, in batchAt's order
	cycleRate            []float64          // diagnoses per busy second, per cycle
	elapsed              time.Duration
	remove, restore      []time.Duration
	rebindDown, rebindUp []time.Duration
	diagnoses, lookups   int64
	busy                 time.Duration
	ops                  int64 // timed calls, each a root span in the traced pass
	lag                  []time.Duration
	rt0, rt1             rtCounters
	heapPeak             uint64
	occupancy            float64
	replay               []churnSyndrome
}

type churnSyndrome struct {
	want []int32
	beh  syndrome.Behavior
}

func runChurn(cfg runConfig, res *result) error {
	var parse, bind []float64
	b, setupS, err := measureSetup(func() (*churnBench, error) {
		b, err := newChurnBench()
		if err == nil {
			parse = append(parse, ms(b.parse))
			bind = append(bind, ms(b.bind))
		}
		return b, err
	}, (*churnBench).close)
	if err != nil {
		return err
	}
	defer b.close()
	m := res.metrics
	m["setup_s"] = setupS
	m["setup_heap_mb"] = heapMB()

	p := churnParams{batches: 20, d: cfg.seconds}
	if cfg.quick {
		p = churnParams{batches: 2, cycles: 2}
	}
	if cfg.trace {
		p.d /= 2
	}
	untraced := runChurnPass(cfg, res, b, p, nil)
	m["p50_ms"] = windowMedian(untraced.batchAt, untraced.batchMs, untraced.elapsed, churnWindow, p50)
	m["p99_ms"] = windowMedian(untraced.batchAt, untraced.batchMs, untraced.elapsed, churnWindow, p99)
	m["throughput_per_s"] = median(untraced.cycleRate)
	m["lookups_per_diag"] = ratio(float64(untraced.lookups), float64(untraced.diagnoses))
	if !cfg.trace {
		return nil
	}

	traced := runChurnPass(cfg, res, b, p, cfg.tr)
	m["loadgen.trace_overhead_ratio"] = ratio(windowMedian(traced.batchAt, traced.batchMs, traced.elapsed, churnWindow, p50), m["p50_ms"]) - 1
	// A sequential driver has no schedule to fall behind; its lag is its
	// own gap between one timed call and the next.
	m["loadgen.lag_p99_ms"] = percentile(msAll(untraced.lag), 99)
	m["error_ratio"] = ratio(float64(res.failed.Load()), float64(res.attempted.Load()))
	// A rebind as a caller sees it: the graph delta plus Rebind.
	var rebinds []time.Duration
	for i := range traced.rebindDown {
		rebinds = append(rebinds, traced.remove[i]+traced.rebindDown[i])
	}
	for i := range traced.rebindUp {
		rebinds = append(rebinds, traced.restore[i]+traced.rebindUp[i])
	}
	m["rebind_p50_ms"] = percentile(msAll(rebinds), 50)
	m["rebind_p90_ms"] = percentile(msAll(rebinds), 90)
	m["core.batch_healthy_p50_ms"] = percentile(msAll(traced.batch[0]), 50)
	m["core.batch_degraded_p50_ms"] = percentile(msAll(traced.batch[1]), 50)
	m["core.rebind_down_p50_ms"] = percentile(msAll(traced.rebindDown), 50)
	m["core.rebind_up_p50_ms"] = percentile(msAll(traced.rebindUp), 50)
	m["graph.remove_p50_ms"] = percentile(msAll(traced.remove), 50)
	m["graph.restore_p50_ms"] = percentile(msAll(traced.restore), 50)
	m["campaign.occupancy"] = traced.occupancy
	m["topology.parse_ms"] = percentile(parse, 50)
	m["core.bind_ms"] = percentile(bind, 50)
	runtimeMetrics(m, untraced.rt0, untraced.rt1, float64(untraced.diagnoses), untraced.heapPeak)

	rp, err := newReplayer(b.eng)
	if err != nil {
		return err
	}
	defer rp.close()
	for i, s := range traced.replay {
		req := traced.ops + int64(i) // request ids after the pass's own
		t0 := cfg.tr.now()
		_, err := rp.replay(s.want, s.beh, cfg.tr, req)
		cfg.tr.root(req, "core.replay", t0, cfg.tr.now())
		res.check(err, "replay of healthy syndrome %d", i)
	}
	rp.report(m)
	return nil
}

// runChurnPass drives the engine through churn cycles on one goroutine.
// Every input comes from one PRNG stream seeded by the run seed, so a
// pass of a fixed number of cycles is deterministic, look-ups included.
func runChurnPass(cfg runConfig, res *result, b *churnBench, p churnParams, tr *tracer) *churnPass {
	rng := rand.New(rand.NewSource(cfg.seed))
	pass := &churnPass{}
	var sampler *poller
	if cfg.trace {
		sampler = startPoller(func() {
			if _, heap := readRuntime(); heap > pass.heapPeak {
				pass.heapPeak = heap
			}
		})
	}
	var lastEnd time.Time
	timed := func(name string, fn func()) time.Duration {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		start := time.Now()
		if pass.ops > 0 {
			pass.lag = append(pass.lag, start.Sub(lastEnd))
		}
		fn()
		lastEnd = time.Now()
		d := lastEnd.Sub(start)
		pass.busy += d
		if tr != nil {
			tr.root(pass.ops, name, t0, tr.now())
		}
		pass.ops++
		return d
	}
	pass.rt0, _ = readRuntime()
	pass.start = time.Now()
cycles:
	for c := 0; (p.cycles == 0 && time.Since(pass.start) < p.d) || c < p.cycles; c++ {
		busy0, diag0 := pass.busy, pass.diagnoses
		nodes := pickNodes(rng, b.eng.Graph().N(), churnRemove)
		var rr *graph.Removal
		pass.remove = append(pass.remove, timed("graph.remove", func() { rr = b.eng.Graph().Remove(nodes, nil) }))
		var err error
		pass.rebindDown = append(pass.rebindDown, timed("core.rebind.down", func() { _, err = b.eng.Rebind(rr) }))
		if err == nil && !b.eng.Degraded() {
			err = fmt.Errorf("engine not degraded after removing %d nodes", churnRemove)
		}
		if !res.check(err, "cycle %d removal rebind", c) {
			break cycles
		}
		runChurnBatches(res, b, p, pass, rng, true, timed)

		var gr *graph.Growth
		pass.restore = append(pass.restore, timed("graph.restore", func() { gr = graph.Restore(rr, nodes, nil) }))
		pass.rebindUp = append(pass.rebindUp, timed("core.rebind.up", func() { _, err = b.eng.Rebind(gr) }))
		if err == nil && (b.eng.Degraded() || b.eng.Diagnosability() != churnDelta ||
			b.eng.KernelName() != b.kernel || b.eng.Graph().N() != b.healthyNodes) {
			err = fmt.Errorf("restore left degraded=%v δ=%d kernel=%s n=%d, want a fresh bind's δ=%d kernel=%s n=%d",
				b.eng.Degraded(), b.eng.Diagnosability(), b.eng.KernelName(), b.eng.Graph().N(), churnDelta, b.kernel, b.healthyNodes)
		}
		if !res.check(err, "cycle %d restore rebind", c) {
			break cycles
		}
		runChurnBatches(res, b, p, pass, rng, false, timed)
		pass.cycleRate = append(pass.cycleRate, float64(pass.diagnoses-diag0)/(pass.busy-busy0).Seconds())
	}
	pass.elapsed = time.Since(pass.start)
	pass.rt1, _ = readRuntime()
	if sampler != nil {
		sampler.stop()
	}
	pass.occupancy = b.rt.Stats().Occupancy()
	return pass
}

// runChurnBatches runs one half cycle's batches of δ′-fault syndromes
// (δ′ = the engine's current bound) and checks every answer, including
// the degraded stamp.
func runChurnBatches(res *result, b *churnBench, p churnParams, pass *churnPass, rng *rand.Rand, degraded bool, timed func(string, func()) time.Duration) {
	idx, name := 0, "core.batch.healthy"
	if degraded {
		idx, name = 1, "core.batch.degraded"
	}
	delta := b.eng.Diagnosability()
	n := b.eng.Graph().N()
	for k := 0; k < p.batches; k++ {
		syns := make([]syndrome.Syndrome, churnBatchSize)
		want := make([]*bitset.Set, churnBatchSize)
		for j := range syns {
			want[j] = syndrome.RandomFaults(n, delta, rng)
			beh, err := syndrome.ParseBehavior(allBehaviours[rng.Intn(len(allBehaviours))], rng.Uint64())
			if err != nil {
				panic(err) // the names are the stock behaviours
			}
			syns[j] = syndrome.NewLazy(want[j], beh)
			if !degraded && len(pass.replay) < churnReplays {
				pass.replay = append(pass.replay, churnSyndrome{want[j].Members32(), beh})
			}
		}
		var results []core.BatchResult
		at := time.Since(pass.start)
		d := timed(name, func() { results = b.rt.DiagnoseBatch(syns, core.BatchOptions{}) })
		pass.batch[idx] = append(pass.batch[idx], d)
		pass.batchAt = append(pass.batchAt, at)
		pass.batchMs = append(pass.batchMs, ms(d))
		for j, r := range results {
			err := r.Err
			switch {
			case err != nil:
			case !r.Faults.Equal(want[j]):
				err = errMismatch
			case r.Stats.Degraded != degraded:
				err = fmt.Errorf("Stats.Degraded = %v, want %v", r.Stats.Degraded, degraded)
			case degraded && r.Stats.EffectiveDelta != delta:
				err = fmt.Errorf("Stats.EffectiveDelta = %d, want %d", r.Stats.EffectiveDelta, delta)
			}
			res.check(err, "%s batch %d syndrome %d", name, k, j)
			pass.lookups += syns[j].Lookups()
		}
		pass.diagnoses += int64(len(syns))
	}
}

// pickNodes draws k distinct node ids below n.
func pickNodes(rng *rand.Rand, n, k int) []int32 {
	seen := make(map[int32]bool, k)
	nodes := make([]int32, 0, k)
	for len(nodes) < k {
		u := int32(rng.Intn(n))
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	return nodes
}
