package main

import (
	"io"
	"strings"
	"testing"
)

// series returns ten seed-keyed samples base×(1 + spread×k/9) for
// k = 0..9, with the seeds in a scrambled order so pairing is by seed.
func series(base, spread float64) map[int64]float64 {
	out := make(map[int64]float64)
	for k := 0; k < 10; k++ {
		out[int64((k*7)%10)] = base * (1 + spread*float64(k)/9)
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	latency := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "throughput_per_s", Unit: "diag/s", Better: "higher", Bound: 0.10}
	unbounded := metricDef{Name: "p99_ms", Unit: "ms", Better: "lower"}
	for _, c := range []struct {
		name           string
		m              metricDef
		parent, change map[int64]float64
		want           string
	}{
		{"faster on every seed, beyond the parent's spread", latency, series(100, 0.02), series(90, 0.02), "improved"},
		{"higher throughput on every seed", rate, series(1000, 0.02), series(1100, 0.02), "improved"},
		{"same distribution", latency, series(100, 0.02), series(100.5, 0.02), "unchanged"},
		{"slower beyond the bound", latency, series(100, 0.02), series(115, 0.02), "regressed"},
		{"lower throughput beyond the bound", rate, series(1000, 0.02), series(850, 0.02), "regressed"},
		{"slower within the bound", latency, series(100, 0.02), series(105, 0.02), "unchanged"},
		{"spread wider than the bound", latency, series(100, 0.40), series(101, 0.40), "unresolved"},
		{"unbounded, slower on every seed", unbounded, series(100, 0.02), series(110, 0.02), "worse"},
		{"unbounded, slower within the spread", unbounded, series(100, 0.40), series(105, 0.40), "unchanged"},
	} {
		if got := judge(c.parent, c.change, c.m); got.verdict != c.want {
			t.Errorf("%s: verdict %q (wins %d/%d, parent %v, change %v), want %q",
				c.name, got.verdict, got.wins, got.pairs, got.p, got.c, c.want)
		}
	}
}

// Winning 8 of 10 pairs is not enough to claim a gain, however large the
// median gap.
func TestJudgeNeedsNineInTenWins(t *testing.T) {
	m := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	parent, change := series(100, 0.02), series(80, 0.02)
	change[0], change[1] = 200, 200
	if got := judge(parent, change, m); got.wins != 8 || got.verdict == "improved" {
		t.Fatalf("8 of 10 wins judged %q with %d wins", got.verdict, got.wins)
	}
}

func TestCompareRefusesMixedHostClasses(t *testing.T) {
	rec := func(cpus int, v float64) record {
		return record{Schema: 2, Workload: "serve-unique", Seed: 1,
			Host:    host{CPUs: cpus, GOMAXPROCS: cpus, GoVersion: "go1.24.0"},
			Metrics: map[string]metricValue{"setup_s": {v, "s"}}}
	}
	var stderr strings.Builder
	if code := compareRecords([]record{rec(2, 4)}, []record{rec(8, 3)}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d comparing a 2-CPU parent with an 8-CPU change", code)
	}
	if !strings.Contains(stderr.String(), "host classes") {
		t.Fatalf("refusal does not name the host classes: %q", stderr.String())
	}
	var stdout strings.Builder
	if code := compareRecords([]record{rec(2, 4)}, []record{rec(2, 6)}, &stdout, io.Discard); code != 1 {
		t.Fatalf("exit %d for a 50%% slower set-up on the same host class, want 1:\n%s", code, stdout.String())
	}
}
