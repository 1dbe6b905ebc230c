package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// runQuick runs the benchmark in-process with --quick and returns the
// summary line.
func runQuick(t *testing.T, args ...string) summary {
	t.Helper()
	var stdout, stderr strings.Builder
	args = append([]string{"--quick", "--seconds", "1", "--seed", "3"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%v: last line is not the summary: %v", args, err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Fatalf("%v: correct=%v failed=%d attempted=%d\n%s", args, sum.Correct, sum.Failed, sum.Attempted, stderr.String())
	}
	return sum
}

// reaches lists, per workload, the per-layer metrics that must read
// nonzero in a traced run because the workload reaches that layer.
var reaches = map[string][]string{
	"serve-unique": {"slo_ratio", "http.overhead_p50_ms", "serve.handler_p50_ms", "serve.handler_p99_ms",
		"serve.batch_width_mean", "topology.parse_ms"},
	"serve-hot": {"slo_ratio", "http.overhead_p50_ms", "serve.handler_p50_ms", "serve.handler_p99_ms",
		"serve.batch_width_mean", "serve.cache_hit_ratio", "topology.parse_ms"},
	"campaign-q18": {"http.overhead_p50_ms", "serve.handler_p50_ms", "campaign.request_p50_ms",
		"campaign.point_gap_p50_ms"},
	"churn-q14": {"rebind_p50_ms", "rebind_p90_ms", "core.batch_healthy_p50_ms", "core.batch_degraded_p50_ms",
		"core.rebind_down_p50_ms", "core.rebind_up_p50_ms", "graph.remove_p50_ms", "graph.restore_p50_ms",
		"topology.parse_ms"},
}

// Every workload reaches the engine (directly or through the replay)
// and the Go runtime.
var reachedByAll = []string{"p99_ms", "core.diagnose_p50_us", "core.final_p50_us", "core.final_ns_per_lookup",
	"core.cert_lookups_per_diag", "core.final_lookups_per_diag", "core.parts_scanned_mean", "core.bind_ms",
	"campaign.occupancy", "runtime.alloc_bytes_per_diag", "runtime.heap_peak_mb"}

func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sum := runQuick(t, "--workload", "all", "--trace", "0")
	for _, w := range workloads {
		for _, m := range endToEnd {
			if v, ok := sum.Metrics[w.name+"/"+m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s %s = %+v, want a positive value in %s", w.name, m.Name, v, m.Unit)
			}
		}
	}

	sum = runQuick(t, "--workload", "all", "--trace", "1")
	for _, w := range workloads {
		for _, m := range perLayer {
			if _, ok := sum.Metrics[w.name+"/"+m.Name]; !ok {
				t.Errorf("%s: traced run did not report %s", w.name, m.Name)
			}
		}
		if v := sum.Metrics[w.name+"/error_ratio"].Value; v != 0 {
			t.Errorf("%s: error_ratio %v", w.name, v)
		}
		for _, name := range append(reaches[w.name], reachedByAll...) {
			if v := sum.Metrics[w.name+"/"+name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
			}
		}
	}
}

// churn-q14 is sequential and seeded, so a fixed number of cycles
// consults the syndromes exactly as often on every run.
func TestChurnLookupsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the churn workload twice")
	}
	a := runQuick(t, "--workload", "churn-q14", "--trace", "0").Metrics["lookups_per_diag"]
	b := runQuick(t, "--workload", "churn-q14", "--trace", "0").Metrics["lookups_per_diag"]
	if a.Value <= 0 || a != b {
		t.Fatalf("lookups_per_diag %v then %v", a.Value, b.Value)
	}
}
