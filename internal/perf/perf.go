// Package perf is the repository's benchmark-regression harness: a
// fixed suite of hot-path measurements (diagnosis end-to-end, the final
// Set_Builder pass, graph construction, boundary extraction) run via
// testing.Benchmark and serialised as JSON. cmd/benchtab's -json mode
// writes the suite to a BENCH_<n>.json file; committing one per PR
// gives the project a perf trajectory that future changes are compared
// against (ns/op, lookups/op and allocs/op per experiment).
package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/serve"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Result is one benchmark measurement.
type Result struct {
	Name         string  `json:"name"`
	N            int     `json:"n"` // iterations run
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	LookupsPerOp float64 `json:"lookups_per_op,omitempty"` // syndrome consultations
}

// Report is the file-level JSON document.
type Report struct {
	Schema  int      `json:"schema"`
	GoOS    string   `json:"goos"`
	GoArch  string   `json:"goarch"`
	Results []Result `json:"results"`
}

// run wraps testing.Benchmark. oneOp, when non-nil, performs exactly
// one operation and returns its syndrome look-up count; it is invoked
// once after the timing runs, so lookups_per_op is the operation's
// exact, deterministic count — testing.Benchmark ramps b.N over several
// runs, which would otherwise smear the counter across an unknown
// number of iterations.
func run(name string, oneOp func() int64, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	res := Result{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if oneOp != nil {
		res.LookupsPerOp = float64(oneOp())
	}
	return res
}

// diagnoseCase measures DiagnoseOpts end-to-end on one network with δ
// random faults under the mimic adversary — the same configuration as
// the repository's Theorem 2 benchmark.
func diagnoseCase(nw topology.Network) Result {
	g := nw.Graph()
	rng := rand.New(rand.NewSource(1))
	F := syndrome.RandomFaults(g.N(), nw.Diagnosability(), rng)
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	op := func() int64 {
		before := s.Lookups()
		got, _, err := core.Diagnose(nw, s)
		if err != nil {
			panic(err)
		}
		if !got.Equal(F) {
			panic("misdiagnosis")
		}
		return s.Lookups() - before
	}
	return run("diagnose/"+nw.Name(), op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// setBuilderCase measures the warm-scratch SetBuilderInto pass alone.
func setBuilderCase(nw topology.Network) Result {
	g := nw.Graph()
	F := syndrome.RandomFaults(g.N(), nw.Diagnosability(), rand.New(rand.NewSource(7)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	seed := int32(0)
	for F.Contains(int(seed)) {
		seed++
	}
	sc := core.NewScratch(g.N())
	delta := nw.Diagnosability()
	op := func() int64 {
		r := core.SetBuilderInto(sc, g, s, seed, delta, nil)
		if r.U.Count() == 0 {
			panic("empty result")
		}
		return r.Lookups
	}
	return run("setbuilder/"+nw.Name(), op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// engineDiagnoseCase measures the engine serving path: warm
// Engine.Diagnose with a bound scratch — partition prebuilt, zero
// steady-state allocation, specialised final pass. Lookups/op must
// equal the free-function diagnose case on the same network: the
// engine path is defined to be look-up-identical.
func engineDiagnoseCase(nw topology.Network) Result {
	g := nw.Graph()
	eng := core.NewEngine(nw)
	F := syndrome.RandomFaults(g.N(), nw.Diagnosability(), rand.New(rand.NewSource(1)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	sc := eng.AcquireScratch()
	defer eng.ReleaseScratch(sc)
	opt := core.Options{Scratch: sc}
	op := func() int64 {
		before := s.Lookups()
		got, _, err := eng.DiagnoseOpts(s, opt)
		if err != nil {
			panic(err)
		}
		if !got.Equal(F) {
			panic("misdiagnosis")
		}
		return s.Lookups() - before
	}
	return run("enginediagnose/"+nw.Name(), op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// implicitEngineDiagnoseCase measures the descriptor-bound serving
// path: a Q_bits engine bound straight from its XOR descriptor — no CSR
// ever materialised — serving warm scratch-bound diagnoses. The fault
// load mirrors engineDiagnoseCase exactly (same size, same seed), so at
// a size where both run, lookups/op must be bit-identical to
// enginediagnose on the same hypercube: implicit adjacency changes
// where neighbours come from, never which tests run. At Q20 (2^20
// nodes) this is the million-node headline the CSR path cannot reach in
// comparable memory (~84 MB of adjacency arrays avoided); allocs/op
// staying 0 is the regression gate.
func implicitEngineDiagnoseCase(bits int) Result {
	eng, err := core.NewCayleyEngine(hypercubeDescriptor(bits), bits)
	if err != nil {
		panic(err)
	}
	n := 1 << uint(bits)
	F := syndrome.RandomFaults(n, bits, rand.New(rand.NewSource(1)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	sc := eng.AcquireScratch()
	defer eng.ReleaseScratch(sc)
	opt := core.Options{Scratch: sc}
	op := func() int64 {
		before := s.Lookups()
		got, _, err := eng.DiagnoseOpts(s, opt)
		if err != nil {
			panic(err)
		}
		if !got.Equal(F) {
			panic("misdiagnosis")
		}
		return s.Lookups() - before
	}
	return run(fmt.Sprintf("enginediagnoseimplicit/Q%d", bits), op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// hypercubeDescriptor is Q_bits as an XOR Cayley descriptor: one
// single-bit mask per dimension.
func hypercubeDescriptor(bits int) graph.XORCayley {
	masks := make([]int32, bits)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	return graph.XORCayley{Bits: bits, Masks: masks}
}

// implicitBindCase measures binding Q_bits from its descriptor
// (core.NewCayleyEngine) — B/op is what an idle implicit engine costs.
// The engine keeps only the δ+1 candidate parts a diagnosis scans, so
// bytes/op does not grow with the node count; the full Q20 partition
// would be ~5 MiB of node ids and part headers.
func implicitBindCase(bits int) Result {
	desc := hypercubeDescriptor(bits)
	return run(fmt.Sprintf("bindimplicit/Q%d", bits), nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, err := core.NewCayleyEngine(desc, bits)
			if err != nil {
				b.Fatal(err)
			}
			if eng.PartsErr() != nil {
				b.Fatal(eng.PartsErr())
			}
		}
	})
}

// batchSyndromes builds k independent δ-fault mimic syndromes.
func batchSyndromes(nw topology.Network, k int) ([]syndrome.Syndrome, []*bitset.Set) {
	g := nw.Graph()
	syns := make([]syndrome.Syndrome, k)
	faults := make([]*bitset.Set, k)
	for i := range syns {
		F := syndrome.RandomFaults(g.N(), nw.Diagnosability(), rand.New(rand.NewSource(int64(i)+100)))
		faults[i] = F
		syns[i] = syndrome.NewLazy(F, syndrome.Mimic{})
	}
	return syns, faults
}

// loopDiagnoseCase measures k looped free-function Diagnose calls —
// the pre-engine serving pattern and the baseline the batch case is
// compared against.
func loopDiagnoseCase(nw topology.Network, k int) Result {
	syns, faults := batchSyndromes(nw, k)
	op := func() int64 {
		var total int64
		for i, s := range syns {
			before := s.Lookups()
			got, _, err := core.Diagnose(nw, s)
			if err != nil {
				panic(err)
			}
			if !got.Equal(faults[i]) {
				panic("misdiagnosis")
			}
			total += s.Lookups() - before
		}
		return total
	}
	return run(fmt.Sprintf("diagnoseloop%d/%s", k, nw.Name()), op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// batchDiagnoseCase measures Engine.DiagnoseBatch over the same k
// syndromes in its default configuration (worker pool = GOMAXPROCS).
// Per syndrome it produces identical fault sets and identical look-up
// counts to the loop case (pinned by the core equivalence tests).
// ns/op against diagnoseloop is the serving-path headline; on a
// single-CPU host the gap is pure amortisation + kernel, on multicore
// it additionally includes worker parallelism.
func batchDiagnoseCase(nw topology.Network, k int) Result {
	syns, faults := batchSyndromes(nw, k)
	eng := core.NewEngine(nw)
	op := func() int64 {
		before := int64(0)
		for _, s := range syns {
			before += s.Lookups()
		}
		for i, r := range eng.DiagnoseBatch(syns, core.BatchOptions{}) {
			if r.Err != nil {
				panic(r.Err)
			}
			if !r.Faults.Equal(faults[i]) {
				panic("misdiagnosis")
			}
		}
		after := int64(0)
		for _, s := range syns {
			after += s.Lookups()
		}
		return after - before
	}
	return run(fmt.Sprintf("diagnosebatch%d/%s", k, nw.Name()), op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// batchGenericCase is batchDiagnoseCase with the structure kernel
// suppressed (Options.GenericFinal): the ablation baseline the
// specialised kernels are judged against. Lookups/op must equal the
// kernel-bound batch case on the same network — kernels change
// throughput, never answers.
func batchGenericCase(nw topology.Network, k int) Result {
	syns, faults := batchSyndromes(nw, k)
	eng := core.NewEngine(nw)
	opt := core.BatchOptions{Options: core.Options{GenericFinal: true}}
	op := func() int64 {
		before := int64(0)
		for _, s := range syns {
			before += s.Lookups()
		}
		for i, r := range eng.DiagnoseBatch(syns, opt) {
			if r.Err != nil {
				panic(r.Err)
			}
			if !r.Faults.Equal(faults[i]) {
				panic("misdiagnosis")
			}
		}
		after := int64(0)
		for _, s := range syns {
			after += s.Lookups()
		}
		return after - before
	}
	return run(fmt.Sprintf("diagnosebatch%dgeneric/%s", k, nw.Name()), op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// campaignSweepCase measures the campaign serving path end to end: a
// low-fault sweep (f = 0..1, the replay-heavy regime where repeated
// hypotheses dominate — every f = 0 trial is the same empty syndrome)
// through Sweep's persistent runtime, with and without the engine
// result cache. Each op binds a fresh cache so the populating misses
// are always measured; the cached-vs-nocache ns/op ratio is the
// campaign throughput headline.
func campaignSweepCase(nw topology.Network, cached bool) Result {
	name := "campaignsweep/" + nw.Name()
	if !cached {
		name = "campaignsweepnocache/" + nw.Name()
	}
	cfg := campaign.Config{MinFaults: 0, MaxFaults: 1, Trials: 64, Seed: 5, Workers: 1}
	op := func() {
		c := cfg
		if cached {
			c.Cache = core.NewResultCache(256)
		}
		for _, p := range campaign.Sweep(nw, c) {
			if p.Exact != p.Trials {
				panic("sweep outcome drifted")
			}
		}
	}
	return run(name, nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// batchRepeatCase measures DiagnoseBatch over a batch whose syndromes
// repeat a few hypotheses (total syndromes over `distinct` distinct
// fault sets) — the cache-friendly repeated-syndrome workload. The
// cached variant binds a fresh ResultCache per op, so each op pays the
// `distinct` populating diagnoses and replays the rest; lookups/op
// records the consultation saving.
func batchRepeatCase(nw topology.Network, total, distinct int, cached bool) Result {
	g := nw.Graph()
	delta := nw.Diagnosability()
	eng := core.NewEngine(nw)
	faultSets := make([]*bitset.Set, distinct)
	for d := range faultSets {
		faultSets[d] = syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(int64(d)+500)))
	}
	name := fmt.Sprintf("batchrepeat%d/%s", total, nw.Name())
	if !cached {
		name = fmt.Sprintf("batchrepeat%dnocache/%s", total, nw.Name())
	}
	op := func() int64 {
		syns := make([]syndrome.Syndrome, total)
		for i := range syns {
			syns[i] = syndrome.NewLazy(faultSets[i%distinct], syndrome.Mimic{})
		}
		var opt core.BatchOptions
		if cached {
			opt.Options.ResultCache = core.NewResultCache(2 * distinct)
		}
		for i, r := range eng.DiagnoseBatch(syns, opt) {
			if r.Err != nil {
				panic(r.Err)
			}
			if !r.Faults.Equal(faultSets[i%distinct]) {
				panic("misdiagnosis")
			}
		}
		var lookups int64
		for _, s := range syns {
			lookups += s.Lookups()
		}
		return lookups
	}
	return run(name, op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// batchSharedFinalCase measures batch-aware final passes compounded
// with shared certification: hypotheses replayed under several
// adversaries with ShareHypotheses grouping, so each hypothesis pays
// one part scan and one behaviour-independent final-prefix growth, and members only regrow the suffix past the
// first fault-adjacent frontier. With scatter == false the fault sets
// cluster around far nodes (BFS-last from the certified seed) — the
// repeated-hypothesis serving workload this lever targets, where most
// growth rounds never touch N(F); the `off` twin runs the identical
// batch unshared and the ns/op gap is the headline, the lookups/op gap
// (group totals strictly below unshared) the deterministic gate. With
// scatter == true the hypotheses are uniform random fault sets, whose
// hazard mask truncates the shareable prefix after a few rounds — the
// boundary tree is a sliver of the graph, so the delta-encoded
// checkpoint records kilobytes.
func batchSharedFinalCase(nw topology.Network, hyps int, share, scatter bool) Result {
	g := nw.Graph()
	delta := nw.Diagnosability()
	eng := core.NewEngine(nw)
	parts, err := eng.Parts()
	if err != nil {
		panic(err)
	}
	faultSets := make([]*bitset.Set, hyps)
	if scatter {
		rng := rand.New(rand.NewSource(23))
		for d := range faultSets {
			faultSets[d] = syndrome.RandomFaults(g.N(), delta, rng)
		}
	} else {
		// Fault clusters centred on the nodes farthest (by BFS distance)
		// from the first part's seed: maximally distant from where the
		// final pass starts growing.
		dist := g.BFSFrom(parts[0].Seed, nil)
		centers := make([]int32, 0, hyps)
		for want := int32(1 << 30); len(centers) < hyps; {
			farD := int32(-1)
			for _, d := range dist {
				if d < want && d > farD {
					farD = d
				}
			}
			want = farD
			for v := int32(0); int(v) < len(dist) && len(centers) < hyps; v++ {
				if dist[v] == farD {
					centers = append(centers, v)
				}
			}
		}
		for d := range faultSets {
			faultSets[d] = syndrome.ClusterFaults(g, centers[d], delta)
		}
	}
	behaviors := []syndrome.Behavior{
		syndrome.Mimic{}, syndrome.AllZero{}, syndrome.AllOne{}, syndrome.Inverted{},
		syndrome.Random{Seed: 1}, syndrome.Random{Seed: 2}, syndrome.Random{Seed: 3}, syndrome.Random{Seed: 4},
	}
	total := hyps * len(behaviors)
	kind := ""
	if scatter {
		kind = "scatter"
	}
	name := fmt.Sprintf("batchsharedfinal%s%d/%s", kind, total, nw.Name())
	if !share {
		name = fmt.Sprintf("batchsharedfinal%s%doff/%s", kind, total, nw.Name())
	}
	opt := core.BatchOptions{ShareHypotheses: share}
	op := func() int64 {
		syns := make([]syndrome.Syndrome, 0, total)
		for _, F := range faultSets {
			for _, b := range behaviors {
				syns = append(syns, syndrome.NewLazy(F, b))
			}
		}
		for i, r := range eng.DiagnoseBatch(syns, opt) {
			if r.Err != nil {
				panic(r.Err)
			}
			if !r.Faults.Equal(faultSets[i/len(behaviors)]) {
				panic("misdiagnosis")
			}
		}
		var lookups int64
		for _, s := range syns {
			lookups += s.Lookups()
		}
		return lookups
	}
	return run(name, op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// churnNodes picks k deterministic distinct nodes of g to remove.
func churnNodes(n, k int) []int32 {
	rng := rand.New(rand.NewSource(20260808))
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

// fullBindCase measures the from-scratch alternative to incremental
// rebinding: constructing Q_n and binding a fresh engine (the
// descriptor-backed graph, which writes no CSR, the structure check and
// the δ+1 candidate parts, resolved from the descriptor without an
// O(n) partition). The churnrebind case on the same topology is gated
// against a fraction of this.
func fullBindCase(n int) Result {
	return run(fmt.Sprintf("fullbind/Q%d", n), nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := core.NewEngine(topology.NewHypercube(n))
			if eng.PartsErr() != nil {
				b.Fatal(eng.PartsErr())
			}
		}
	})
}

// churnRebindCase measures one incremental rebind end to end: the O(m)
// compaction of a k-node removal plus the Survivor binding derivation
// (partition survival, δ′, kernel re-verification). Survivor rather
// than Rebind keeps the measured engine pristine across iterations;
// the derivation work is identical.
func churnRebindCase(n, k int) Result {
	eng := core.NewEngine(topology.NewHypercube(n))
	nodes := churnNodes(eng.Graph().N(), k)
	return run(fmt.Sprintf("churnrebind/Q%d", n), nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rr := eng.Graph().RemoveNodes(nodes)
			if _, _, err := eng.Survivor(rr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// churnDiagnoseCase measures the warm serving path of a rebound engine:
// scratch-bound Engine.Diagnose on the surviving component after a
// k-node removal. Steady state must stay allocation-free (the
// allocs/op column is the regression gate) and exact under δ′.
func churnDiagnoseCase(n, k int) Result {
	eng := core.NewEngine(topology.NewHypercube(n))
	rr := eng.Graph().RemoveNodes(churnNodes(eng.Graph().N(), k))
	if _, err := eng.Rebind(rr); err != nil {
		panic(err)
	}
	g := eng.Graph()
	F := syndrome.RandomFaults(g.N(), eng.Diagnosability(), rand.New(rand.NewSource(1)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	sc := eng.AcquireScratch()
	opt := core.Options{Scratch: sc}
	op := func() int64 {
		before := s.Lookups()
		got, st, err := eng.DiagnoseOpts(s, opt)
		if err != nil {
			panic(err)
		}
		if !got.Equal(F) || !st.Degraded {
			panic("misdiagnosis")
		}
		return s.Lookups() - before
	}
	return run(fmt.Sprintf("churndiagnose/Q%d", n), op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// churnFlapCase measures one full flap cycle end to end on a live
// engine: removal compaction + degraded Rebind + restore compaction +
// recovery Rebind (δ′ re-ascent, partition regrowth, kernel
// re-promotion). A full restore returns the engine to a
// pristine-equivalent binding, so the cycle composes across iterations
// without drifting. The gate: one cycle must stay well under the cost
// of the two from-scratch binds it replaces.
func churnFlapCase(n, k int) Result {
	eng := core.NewEngine(topology.NewHypercube(n))
	nodes := churnNodes(eng.Graph().N(), k)
	return run(fmt.Sprintf("churnflap/Q%d", n), nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rr := eng.Graph().Remove(nodes, nil)
			if _, err := eng.Rebind(rr); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Rebind(graph.Restore(rr, nodes, nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// servedBatchCase measures the diagnosis service end to end over
// loopback HTTP: hyps × 8-behaviour concurrent clients POST
// /v1/diagnose against a live serve.Server and the op completes when
// every response has arrived and verified. With coalesce the server's
// window gathers all of them into one grouped DiagnoseBatch call
// (MaxBatch = the client count, so the last arrival — not the timer —
// triggers the flush); the off twin diagnoses each request the moment
// it arrives. The ns/op gap is what request coalescing buys a loaded
// server; lookups/op (read from the server's own counter) shows the
// shared-certification + shared-final-prefix bill shrinking.
//
// Hypotheses are drawn by a deterministic seed scan that keeps only
// fault sets whose solo diagnosis certifies the first part
// (PartsScanned == 1): a certified part is fault-free, its scan is
// behaviour-independent, and so the coalesced group's certification
// bill does not depend on which member reached the server first —
// keeping lookups/op exactly reproducible for benchtab -compare.
func servedBatchCase(bits, hyps int, coalesce bool) Result {
	nw := topology.NewHypercube(bits)
	g := nw.Graph()
	delta := nw.Diagnosability()
	spec := fmt.Sprintf("q:%d", bits)

	ref := core.NewEngine(nw)
	rng := rand.New(rand.NewSource(101))
	faultSets := make([]*bitset.Set, 0, hyps)
	for len(faultSets) < hyps {
		F := syndrome.RandomFaults(g.N(), delta, rng)
		_, stats, err := ref.Diagnose(syndrome.NewLazy(F, syndrome.Mimic{}))
		if err != nil || stats.PartsScanned != 1 {
			continue
		}
		faultSets = append(faultSets, F)
	}

	type behSpec struct {
		name string
		seed uint64
	}
	behs := []behSpec{
		{"mimic", 0}, {"all-zero", 0}, {"all-one", 0}, {"inverted", 0},
		{"random", 1}, {"random", 2}, {"random", 3}, {"random", 4},
	}
	total := hyps * len(behs)

	cfg := serve.Config{
		Window:   time.Second, // fallback only; MaxBatch triggers the flush
		MaxBatch: total,
		CacheCap: -1, // no result cache: measure coalescing, not caching
	}
	if !coalesce {
		cfg.NoCoalesce = true
	}
	srv := serve.New(cfg)
	if err := srv.Preload(spec); err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		srv.Close()
	}()
	url := "http://" + ln.Addr().String() + "/v1/diagnose"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: total}}

	bodies := make([][]byte, total)
	expected := make([][]int, total)
	for i := range bodies {
		F := faultSets[i/len(behs)]
		bs := behs[i%len(behs)]
		body, err := json.Marshal(serve.DiagnoseRequest{
			Topology: spec, Faults: F.Members(), Behavior: bs.name, Seed: bs.seed,
		})
		if err != nil {
			panic(err)
		}
		bodies[i] = body
		expected[i] = F.Members()
	}

	op := func() int64 {
		before := srv.Snapshot().SyndromeLookups
		var wg sync.WaitGroup
		errs := make(chan error, total)
		for i := 0; i < total; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errs <- err
					return
				}
				var dr serve.DiagnoseResponse
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				switch {
				case err != nil:
					errs <- err
				case resp.StatusCode != http.StatusOK:
					errs <- fmt.Errorf("request %d: status %d (%s)", i, resp.StatusCode, dr.Error)
				case len(dr.Faults) != len(expected[i]):
					errs <- fmt.Errorf("request %d: %d faults, want %d", i, len(dr.Faults), len(expected[i]))
				default:
					for j, id := range dr.Faults {
						if id != expected[i][j] {
							errs <- fmt.Errorf("request %d: misdiagnosis", i)
							return
						}
					}
				}
			}(i)
		}
		wg.Wait()
		select {
		case err := <-errs:
			panic(err)
		default:
		}
		return srv.Snapshot().SyndromeLookups - before
	}
	name := fmt.Sprintf("servedbatch%d/%s", total, nw.Name())
	if !coalesce {
		name = fmt.Sprintf("servedbatch%doff/%s", total, nw.Name())
	}
	return run(name, op, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// graphBuildCase measures a family's CSR construction. Q_n and FQ_n
// are backed by their generator sets (graph.FromXORCayley, with
// single-bit and multi-bit masks) and write their CSR when it is first
// read, so the case reads it (Adjacency); CQ_n has no generator set and
// lists its neighbours out of order, so it measures FromAdjacency's
// transpose path.
func graphBuildCase(build func() topology.Network) Result {
	nw := build()
	_, want := nw.Graph().Adjacency()
	return run("graphbuild/"+nw.Name(), nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, targets := build().Graph().Adjacency(); len(targets) != len(want) {
				b.Fatal("bad size")
			}
		}
	})
}

// boundaryCase measures NeighborsOfSetInto on the diagnosis-shaped
// dense set (all nodes healthy but δ).
func boundaryCase(n int) Result {
	nw := topology.NewHypercube(n)
	g := nw.Graph()
	F := syndrome.RandomFaults(g.N(), n, rand.New(rand.NewSource(9)))
	set := bitset.New(g.N())
	for u := 0; u < g.N(); u++ {
		if !F.Contains(u) {
			set.Add(u)
		}
	}
	out := bitset.New(g.N())
	return run(fmt.Sprintf("neighborsofset/Q%d", n), nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.NeighborsOfSetInto(set, out)
			if out.Count() == 0 {
				b.Fatal("no boundary")
			}
		}
	})
}

// Suite runs the regression suite and returns the report.
func Suite() *Report {
	rep := &Report{Schema: 1, GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	for _, n := range []int{8, 10, 12, 14} {
		rep.Results = append(rep.Results, diagnoseCase(topology.NewHypercube(n)))
	}
	rep.Results = append(rep.Results,
		diagnoseCase(topology.NewStar(8)),
		diagnoseCase(topology.NewKAryNCube(4, 4)),
		setBuilderCase(topology.NewHypercube(12)),
		setBuilderCase(topology.NewHypercube(14)),
		engineDiagnoseCase(topology.NewHypercube(14)),
		loopDiagnoseCase(topology.NewHypercube(14), 64),
		batchDiagnoseCase(topology.NewHypercube(14), 64),
		graphBuildCase(func() topology.Network { return topology.NewHypercube(14) }),
		graphBuildCase(func() topology.Network { return topology.NewFoldedHypercube(14) }),
		graphBuildCase(func() topology.Network { return topology.NewCrossedCube(14) }),
		boundaryCase(14),
	)
	// Structured families served by the PR 3 kernels: engine single-shot
	// plus kernel-vs-generic batch pairs (identical lookups/op within a
	// pair; the ns/op gap is the kernel's win).
	rep.Results = append(rep.Results,
		engineDiagnoseCase(topology.NewFoldedHypercube(12)),
		engineDiagnoseCase(topology.NewAugmentedCube(10)),
		engineDiagnoseCase(topology.NewKAryNCube(4, 7)),
		batchDiagnoseCase(topology.NewFoldedHypercube(12), 64),
		batchGenericCase(topology.NewFoldedHypercube(12), 64),
		batchDiagnoseCase(topology.NewAugmentedCube(10), 64),
		batchGenericCase(topology.NewAugmentedCube(10), 64),
		batchDiagnoseCase(topology.NewKAryNCube(4, 7), 64),
		batchGenericCase(topology.NewKAryNCube(4, 7), 64),
	)
	// PR 4: the persistent campaign runtime + engine result cache
	// (cached vs uncached sweep and repeated-syndrome batches) and the
	// augmented k-ary family (served by the generic pass; these cases
	// keep its look-ups gated).
	rep.Results = append(rep.Results,
		campaignSweepCase(topology.NewHypercube(14), true),
		campaignSweepCase(topology.NewHypercube(14), false),
		batchRepeatCase(topology.NewHypercube(14), 64, 8, true),
		batchRepeatCase(topology.NewHypercube(14), 64, 8, false),
		engineDiagnoseCase(topology.NewAugmentedKAryNCube(4, 5)),
		batchDiagnoseCase(topology.NewAugmentedKAryNCube(4, 5), 64),
	)
	// PR 5: batch-aware final passes — repeated hypotheses share the
	// behaviour-independent final-prefix growth on top of the shared
	// part scan (8 hypotheses × 8 adversaries).
	rep.Results = append(rep.Results,
		batchSharedFinalCase(topology.NewHypercube(14), 8, true, false),
		batchSharedFinalCase(topology.NewHypercube(14), 8, false, false),
	)
	// PR 6: churn tolerance — a from-scratch bind of Q14, the
	// incremental rebind after a 16-node removal (gated well under the
	// full bind), and the warm degraded-mode serving path (0 allocs/op).
	rep.Results = append(rep.Results,
		fullBindCase(14),
		churnRebindCase(14, 16),
		churnDiagnoseCase(14, 16),
	)
	// PR 7: million-node implicit engines — the descriptor-bound Q20
	// diagnose headline (0 allocs/op warm, no CSR), the implicit-vs-CSR
	// Q14 pair (lookups/op bit-identical to enginediagnose/Q14), and the
	// scattered-hypothesis shared batch, whose delta-encoded checkpoints
	// record only the sliver-sized boundary tree.
	rep.Results = append(rep.Results,
		implicitEngineDiagnoseCase(14),
		implicitEngineDiagnoseCase(20),
		batchSharedFinalCase(topology.NewHypercube(14), 8, true, true),
	)
	// PR 9: recovery tolerance — one full remove-restore flap cycle on a
	// live Q14 engine (both rebinds), gated well under the two
	// from-scratch binds it replaces (compare against 2× fullbind/Q14).
	rep.Results = append(rep.Results,
		churnFlapCase(14, 16),
	)
	// PR 10: diagnosis-as-a-service — 64 concurrent loopback clients
	// against cmd/diagnosed's serving stack, with the coalescing window
	// on versus the diagnose-on-arrival twin. The on case must win on
	// both wall time and the server-side look-up bill.
	rep.Results = append(rep.Results,
		servedBatchCase(14, 8, true),
		servedBatchCase(14, 8, false),
	)
	// An implicit engine at rest: binding Q20 from its descriptor keeps
	// only the candidate parts, so B/op stays node-count independent.
	rep.Results = append(rep.Results,
		implicitBindCase(20),
	)
	return rep
}

// QuickSuite is the smoke subset for PR CI (bench.sh -quick): the
// fastest representative of each subsystem, small graphs only, so the
// whole run finishes in seconds while still catching a pathological
// hot-path regression or a panicking serving path.
func QuickSuite() *Report {
	rep := &Report{Schema: 1, GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	rep.Results = append(rep.Results,
		diagnoseCase(topology.NewHypercube(10)),
		setBuilderCase(topology.NewHypercube(10)),
		engineDiagnoseCase(topology.NewHypercube(10)),
		batchRepeatCase(topology.NewHypercube(10), 16, 4, true),
		batchSharedFinalCase(topology.NewHypercube(10), 2, true, false),
		campaignSweepCase(topology.NewHypercube(8), true),
		graphBuildCase(func() topology.Network { return topology.NewHypercube(10) }),
		churnRebindCase(10, 4),
		churnFlapCase(10, 4),
		implicitEngineDiagnoseCase(10),
		servedBatchCase(10, 2, true),
	)
	return rep
}

// Read parses a report previously serialised by Write — the other half
// of the perf-trajectory workflow (cmd/benchtab -compare).
func Read(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("perf: parsing report: %w", err)
	}
	return &rep, nil
}

// Write serialises the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
