// Command benchtab regenerates the paper's evaluation artefacts as
// plain-text tables — one per experiment in internal/experiments — and, in
// -json mode, the repository's perf-trajectory baseline.
//
// Usage:
//
//	benchtab -table all          # every experiment (default)
//	benchtab -table t2           # Theorem 2 sweep only
//	benchtab -table t9 -full     # enlarged sweep
//	benchtab -json BENCH_1.json  # run the perf suite, write JSON baseline
//	benchtab -compare OLD NEW    # gate: shared cases must not regress lookups/op
//	benchtab -quick              # smoke subset for PR CI (bench.sh -quick)
//
// Table ids: t2..t12 (paper claims), a1, a3 (repository ablations).
//
// The -json mode runs the fixed benchmark suite of internal/perf
// (ns/op, lookups/op, allocs/op per experiment) and writes it to the
// given file; bench.sh wraps it so each PR can commit a BENCH_<n>.json
// and be compared against its predecessors.
//
// The -compare mode loads two such files and fails (exit 1) when any
// case present in both regressed its lookups/op — the deterministic
// half of the perf trajectory, which verify.sh chains across every
// committed BENCH_*.json. ns/op is reported but not gated (it is
// machine-dependent).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"comparisondiag/internal/experiments"
	"comparisondiag/internal/perf"
)

func main() {
	table := flag.String("table", "all", "experiment id (t2..t12, a1, a3, or 'all')")
	full := flag.Bool("full", false, "run the enlarged sweeps (slower)")
	jsonOut := flag.String("json", "", "run the perf regression suite and write JSON to this file ('-' for stdout)")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files (args: OLD NEW); exit 1 if a shared case regressed lookups/op")
	quick := flag.Bool("quick", false, "run the smoke perf subset (small graphs, seconds not minutes) and print a table")
	flag.Parse()

	if *quick {
		rep := perf.QuickSuite()
		fmt.Printf("%-28s %14s %14s %10s %12s\n", "case", "ns/op", "lookups/op", "allocs/op", "bytes/op")
		for _, r := range rep.Results {
			fmt.Printf("%-28s %14.0f %14.0f %10d %12d\n", r.Name, r.NsPerOp, r.LookupsPerOp, r.AllocsPerOp, r.BytesPerOp)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchtab -compare OLD.json NEW.json")
			os.Exit(2)
		}
		if !compareReports(flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	}

	if *jsonOut != "" {
		rep := perf.Suite()
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := rep.Write(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if strings.EqualFold(*table, "all") {
		for _, t := range experiments.All(*full) {
			t.Fprint(os.Stdout)
		}
		return
	}
	for _, id := range strings.Split(*table, ",") {
		t, err := experiments.ByID(strings.TrimSpace(id), *full)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		t.Fprint(os.Stdout)
	}
}

// loadReport reads one serialised perf report.
func loadReport(path string) (*perf.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return perf.Read(f)
}

// compareReports prints old-vs-new for every case shared by the two
// reports and returns false when any of them regressed a deterministic
// column: lookups/op (fixed seeds, fixed suite, so strictly more
// consultations than the predecessor baseline fails) and, for cases the
// predecessor ran allocation-free, allocs/op — a warm path that was at
// 0 allocs/op is a contract, not a measurement, and any allocation
// appearing on it fails. ns/op and bytes/op are reported but not gated
// (machine- and allocator-dependent).
func compareReports(oldPath, newPath string) bool {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	oldBy := make(map[string]perf.Result, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}
	fmt.Printf("comparing %s -> %s\n", oldPath, newPath)
	fmt.Printf("%-34s %14s %14s %12s %12s %11s\n", "case", "lookups(old)", "lookups(new)", "allocs(o→n)", "verdict", "ns/op Δ")
	ok := true
	shared := 0
	for _, nr := range newRep.Results {
		or, found := oldBy[nr.Name]
		if !found {
			continue
		}
		shared++
		verdict := "ok"
		if nr.LookupsPerOp > or.LookupsPerOp {
			verdict = "REGRESSED"
			ok = false
		}
		if or.AllocsPerOp == 0 && nr.AllocsPerOp > 0 {
			verdict = "ALLOCS"
			ok = false
		}
		nsDelta := "-"
		if or.NsPerOp > 0 {
			nsDelta = fmt.Sprintf("%+.1f%%", 100*(nr.NsPerOp-or.NsPerOp)/or.NsPerOp)
		}
		fmt.Printf("%-34s %14.0f %14.0f %12s %12s %11s\n", nr.Name, or.LookupsPerOp, nr.LookupsPerOp,
			fmt.Sprintf("%d→%d", or.AllocsPerOp, nr.AllocsPerOp), verdict, nsDelta)
	}
	if shared == 0 {
		fmt.Fprintln(os.Stderr, "benchtab: no shared cases between the two reports")
		os.Exit(2)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchtab: deterministic columns regressed vs predecessor baseline (lookups/op, or allocs on a previously allocation-free case)")
	}
	return ok
}
