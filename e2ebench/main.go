// Command e2ebench is the repository's end-to-end benchmark. It drives
// the diagnosis service (internal/serve behind cleartext HTTP/2 on
// loopback) and the engine (internal/core, internal/campaign) through
// four workloads, checks every answer against the fault hypothesis that
// produced it, and prints every metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload serve-unique --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 30 --trace 1 --spans spans.json
//	bash e2ebench/run.sh compare PARENT_DIR CHANGE_DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// twice, untraced and then traced, for half the time each, and reports
// the per-layer metrics. See README.md for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef is one reported metric. Bound, for end-to-end metrics, is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression; BENCHMARK.json carries the same table.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd metrics come from untraced runs and are reported, nonzero, on
// every workload. Each carries the regression bound the run-to-run
// spread measured on a shared 2-CPU host allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"setup_heap_mb", "MB", "lower", 0.05},
	{"lookups_per_diag", "count", "lower", 0.10},
}

// perLayer metrics come from traced runs. A layer a workload does not
// reach reports 0 (README.md lists which layers each workload reaches).
// The first three are the served latency and throughput: they are
// measured in every run and written to its record, but carry no bound,
// because on a shared host the medians of two sets of ten runs differed
// by up to 26% (README.md, "Why latency and throughput carry no bound").
var perLayer = []metricDef{
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_per_s", Unit: "diag/s", Better: "higher"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "error_ratio", Unit: "ratio", Better: "lower"},
	{Name: "slo_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rebind_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rebind_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "http.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_width_mean", Unit: "count", Better: "higher"},
	{Name: "serve.pending_max", Unit: "count", Better: "lower"},
	{Name: "serve.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shared_final_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.diagnose_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.cert_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.final_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.final_ns_per_lookup", Unit: "ns", Better: "lower"},
	{Name: "core.cert_lookups_per_diag", Unit: "count", Better: "lower"},
	{Name: "core.final_lookups_per_diag", Unit: "count", Better: "lower"},
	{Name: "core.parts_scanned_mean", Unit: "count", Better: "lower"},
	{Name: "core.batch_healthy_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.batch_degraded_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rebind_down_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rebind_up_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bind_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.remove_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.restore_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.request_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.point_gap_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.occupancy", Unit: "ratio", Better: "higher"},
	{Name: "runtime.alloc_bytes_per_diag", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	run       func(cfg runConfig, res *result) error
}

var workloads = []workload{
	{"serve-unique", "Q14 open loop at 1000 req/s alternating with 64 in flight, every request a fresh 14-fault hypothesis: certification plus final pass per request, cache never hits", runServeUnique},
	{"serve-hot", "Q14 open loop at 2000 req/s alternating with 64 in flight, 8 far fault clusters, half exact repeats: drives sharing, dedup and the result cache", runServeHot},
	{"campaign-q18", "implicit Q18 /v1/campaign requests back to back, f = 16..18 x 64 random trials: the final pass over 262,144 nodes dominates", runCampaign},
	{"churn-q14", "Q14 engine driven directly: remove 16 nodes, rebind, 20 batches of 16, restore, rebind, 20 batches: rebinds beside diagnosis", runChurn},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	quick   bool
	tr      *tracer // non-nil during the traced pass
}

// result collects what one run measured and checked. check is safe for
// concurrent use; metrics is written by the workload's own goroutine.
type result struct {
	metrics   map[string]float64
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
	notes     []string
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// check counts one attempted operation and, when err is non-nil, one
// failure described by what.
func (r *result) check(err error, what string, args ...any) bool {
	return r.checkN(1, err, what, args...)
}

// checkN is check for an operation that stands for n attempts, such as
// a campaign point of n trials.
func (r *result) checkN(n int64, err error, what string, args ...any) bool {
	r.attempted.Add(n)
	if err == nil {
		return true
	}
	r.failed.Add(n)
	r.mu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(what, args...)+": "+err.Error())
	}
	r.mu.Unlock()
	return false
}

func (r *result) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	return host{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: commit(),
	}
}

// class is what must match before wall times of two hosts compare.
func (h host) class() string {
	return fmt.Sprintf("cpus=%d gomaxprocs=%d %s", h.CPUs, h.GOMAXPROCS, h.GoVersion)
}

// commit is the source revision: the one the Go toolchain stamped into
// the binary, else what git reports for the working directory (never
// searching above it), else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full account of one run, written with --out and read by
// the compare subcommand.
type record struct {
	Schema    int                    `json:"schema"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Quick     bool                   `json:"quick,omitempty"`
	Host      host                   `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-unique, serve-hot, campaign-q18, churn-q14 or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced pass and reports per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write the traced pass's spans to this JSON file")
	out := fs.String("out", "", "also write the run record (JSON) to this file")
	quick := fs.Bool("quick", false, "reduced rates and sizes, for a smoke run of a second or so per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *seed < 0 {
		fmt.Fprintln(stderr, "e2ebench: want --workload NAME --seed N (N ≥ 0) --seconds S (S > 0) --trace 0|1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		quick:   *quick,
	}
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}

	final := summary{Correct: true, Metrics: make(map[string]metricValue)}
	var records []record
	tracers := make(map[string]*tracer)
	for _, w := range selected {
		res := newResult()
		wcfg := cfg
		if cfg.trace {
			wcfg.tr = newTracer()
			tracers[w.name] = wcfg.tr
		}
		if err := w.run(wcfg, res); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		rec := record{
			Schema: 2, Workload: w.name, Seed: cfg.seed, Seconds: *seconds, Trace: *trace, Quick: cfg.quick,
			Host: hostInfo(), Attempted: res.attempted.Load(), Failed: res.failed.Load(),
			Notes: res.notes, Metrics: make(map[string]metricValue),
		}
		rec.Correct = rec.Failed == 0 && rec.Attempted > 0
		for _, e := range res.errs {
			fmt.Fprintf(stderr, "e2ebench: %s: FAILED %s\n", w.name, e)
		}
		for _, n := range res.notes {
			fmt.Fprintf(stderr, "e2ebench: %s: note: %s\n", w.name, n)
		}
		// The record keeps every metric the run measured, so compare can
		// judge the unbounded ones too; the printed set is exactly the
		// mode's.
		for _, m := range append(slices.Clone(endToEnd), perLayer...) {
			if v, ok := res.metrics[m.Name]; ok {
				rec.Metrics[m.Name] = metricValue{v, m.Unit}
			}
		}
		for _, m := range set {
			v, ok := res.metrics[m.Name]
			if !ok && !cfg.trace {
				fmt.Fprintf(stderr, "e2ebench: %s did not measure %s\n", w.name, m.Name)
				return 1
			}
			rec.Metrics[m.Name] = metricValue{v, m.Unit}
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
			key := m.Name
			if len(selected) > 1 {
				key = w.name + "/" + m.Name
			}
			final.Metrics[key] = metricValue{v, m.Unit}
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		records = append(records, rec)
	}
	for _, rec := range records {
		line, err := json.Marshal(rec)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: encoding record: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if *out != "" {
		if err := writeRecords(*out, records); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
	}
	if cfg.trace && *spans != "" {
		if err := writeSpans(*spans, tracers); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: encoding summary: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// writeRecords stores the run's records, one JSON object per line.
func writeRecords(path string, records []record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}

// Each run times fresh set-ups until it has at least minSetups of them
// and minSetupTime has passed, and at most maxSetups; setup_s is their
// median. A Q14 bind takes about 20 ms, an implicit Q18 bind under 1 ms,
// so the cheap set-up is timed often enough for its median to settle.
const (
	minSetups    = 11
	maxSetups    = 51
	minSetupTime = 200 * time.Millisecond
)

// measureSetup builds the system under test from scratch repeatedly,
// releasing each build before the next, and returns the last build with
// the median build time in seconds. Only the median is reported, so one
// slow set-up does not move setup_s.
func measureSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var kept T
	var times []float64
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < minSetupTime); i++ {
		if i > 0 {
			release(kept)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		kept = v
	}
	return kept, median(times), nil
}

// errMismatch reports a verified answer that differs from the expected
// one.
var errMismatch = errors.New("answer differs from the injected fault set")
