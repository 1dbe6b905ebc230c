package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// compareMain implements `e2ebench compare PARENT_DIR CHANGE_DIR`: the
// noise-aware gate between the untraced run records (--out files) of a
// parent commit and of a change, run with the same settings and seeds.
// It prints one row per (workload, metric) the records share and exits 1
// when a bounded metric regressed. Wall times from different host
// classes (CPU count, GOMAXPROCS, Go version) are not compared at all.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	parent, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench compare: %v\n", err)
		return 2
	}
	change, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench compare: %v\n", err)
		return 2
	}
	return compareRecords(parent, change, stdout, stderr)
}

func compareRecords(parent, change []record, stdout, stderr io.Writer) int {
	classes := make(map[string]bool)
	for _, r := range append(slices.Clone(parent), change...) {
		classes[r.Host.class()] = true
	}
	if len(classes) != 1 {
		fmt.Fprintf(stderr, "e2ebench compare: refusing to compare wall times across host classes %v\n", slices.Sorted(maps.Keys(classes)))
		return 2
	}
	fmt.Fprintf(stdout, "%-14s %-18s %32s %32s %7s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	rows, regressed := 0, false
	for _, w := range workloads {
		for _, m := range append(slices.Clone(endToEnd), perLayer...) {
			p, c := bySeed(parent, w.name, m.Name), bySeed(change, w.name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			j := judge(p, c, m)
			rows++
			regressed = regressed || j.verdict == "regressed"
			fmt.Fprintf(stdout, "%-14s %-18s %32s %32s %3d/%-3d  %s\n", w.name, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", j.p[1], j.p[0], j.p[2]),
				fmt.Sprintf("%.6g [%.6g, %.6g]", j.c[1], j.c[0], j.c[2]),
				j.wins, j.pairs, j.verdict)
		}
	}
	if rows == 0 {
		fmt.Fprintln(stderr, "e2ebench compare: no workload has untraced runs on both sides")
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// judgement is the verdict on one (workload, metric) pair with the
// numbers it rests on: each side's quartiles and the seed-paired wins.
type judgement struct {
	p, c        [3]float64
	wins, pairs int
	verdict     string
}

// judge applies the gate. improved: the change wins at least 9 in 10
// seed-paired runs (ties count for neither) and its median is better by
// more than the parent's interquartile range. For a metric with a bound,
// regressed: the change's median is worse than the parent's by more than
// the bound; unresolved: either side's interquartile range, as a share
// of its median, exceeds the bound, unless every change run beats every
// parent run. For a metric without one, worse mirrors improved: the
// change loses 9 in 10 pairs and its median is worse by more than the
// parent's interquartile range. unchanged: anything else.
func judge(parent, change map[int64]float64, m metricDef) judgement {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	var j judgement
	pv, cv := mapValues(parent), mapValues(change)
	j.p[0], j.p[1], j.p[2] = quartiles(pv)
	j.c[0], j.c[1], j.c[2] = quartiles(cv)
	losses := 0
	for seed, pval := range parent {
		if cval, ok := change[seed]; ok {
			j.pairs++
			if better(cval, pval) {
				j.wins++
			} else if better(pval, cval) {
				losses++
			}
		}
	}
	gain := j.p[1] - j.c[1]
	if m.Better == "higher" {
		gain = -gain
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := math.Max(ratio(j.p[2]-j.p[0], math.Abs(j.p[1])), ratio(j.c[2]-j.c[0], math.Abs(j.c[1])))
	iqr := j.p[2] - j.p[0]
	bounded := m.Bound > 0
	switch {
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs && gain > iqr:
		j.verdict = "improved"
	case bounded && -gain > m.Bound*math.Abs(j.p[1]):
		j.verdict = "regressed"
	case bounded && spread > m.Bound && !allBetter:
		j.verdict = "unresolved"
	case !bounded && j.pairs > 0 && 10*losses >= 9*j.pairs && -gain > iqr:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// loadRecords reads every untraced schema-2 record in dir's *.json
// files (one JSON object per line, as --out writes them).
func loadRecords(dir string) ([]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no *.json records in %s", dir)
	}
	var out []record
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(f)
		for {
			var r record
			err := dec.Decode(&r)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if r.Schema == 2 && r.Trace == 0 {
				out = append(out, r)
			}
		}
		f.Close()
	}
	return out, nil
}

// bySeed collects one metric of one workload, keyed by run seed.
func bySeed(recs []record, workload, metric string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out[r.Seed] = v.Value
		}
	}
	return out
}

func mapValues(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
