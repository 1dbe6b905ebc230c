// Package experiments regenerates every evaluation artefact of the
// paper: the per-family complexity claims of Theorems 2–7, the look-up
// economy of Section 6, the comparisons with Chiang–Tan and Yang of
// Sections 3/6, the diagnosability validations, the distributed
// comparison of the Conclusions, and the repository's own ablations.
// Each experiment returns a Table that cmd/benchtab prints; ByID is the
// index (t2..t14 for the paper's claims, a1 and a3 for the ablations).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Table is one regenerated evaluation artefact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// runResult aggregates repeated diagnosis runs on one instance.
type runResult struct {
	avgTime      time.Duration
	perDeltaN    float64 // ns per (Δ·N) — flat when the O(ΔN) claim holds
	certLookups  int64
	finalLookups int64
	totalLookups int64
	healthy      int
	kernel       string // final-pass kernel the engine bound
	ok           bool
	errText      string
}

// measureDiagnose runs `trials` diagnoses with fresh random fault sets
// of size δ under the given behaviour and averages the cost. The
// trials run through one engine bound to the network — the serving
// configuration the tables describe — so partition construction is
// paid once, not per trial.
func measureDiagnose(nw topology.Network, behavior syndrome.Behavior, trials int, seed int64) runResult {
	eng := core.NewEngine(nw)
	g := eng.Graph()
	delta := eng.Diagnosability()
	rng := rand.New(rand.NewSource(seed))
	var res runResult
	res.kernel = eng.KernelName()
	var total time.Duration
	for i := 0; i < trials; i++ {
		F := syndrome.RandomFaults(g.N(), delta, rng)
		s := syndrome.NewLazy(F, behavior)
		start := time.Now()
		got, stats, err := eng.Diagnose(s)
		total += time.Since(start)
		if err != nil {
			res.errText = err.Error()
			return res
		}
		if !got.Equal(F) {
			res.errText = "MISDIAGNOSIS"
			return res
		}
		res.certLookups += stats.CertLookups
		res.finalLookups += stats.FinalLookups
		res.totalLookups += stats.TotalLookups
		res.healthy = stats.HealthyCount
	}
	res.ok = true
	res.avgTime = total / time.Duration(trials)
	res.certLookups /= int64(trials)
	res.finalLookups /= int64(trials)
	res.totalLookups /= int64(trials)
	res.perDeltaN = float64(res.avgTime.Nanoseconds()) / float64(g.MaxDegree()*g.N())
	return res
}

// scalingRow renders one instance of a Theorem 2–7 table.
func scalingRow(nw topology.Network, trials int, seed int64) []string {
	g := nw.Graph()
	r := measureDiagnose(nw, syndrome.Mimic{}, trials, seed)
	if !r.ok {
		return []string{nw.Name(), itoa(g.N()), itoa(g.MaxDegree()), itoa(nw.Diagnosability()),
			"-", "-", "-", r.kernel, "ERR: " + r.errText}
	}
	return []string{
		nw.Name(), itoa(g.N()), itoa(g.MaxDegree()), itoa(nw.Diagnosability()),
		fmtDur(r.avgTime), fmt.Sprintf("%.2f", r.perDeltaN), itoa64(r.totalLookups), r.kernel, "ok",
	}
}

var scalingColumns = []string{"instance", "N", "Δ", "δ", "time/diag", "ns/(Δ·N)", "lookups", "kernel", "status"}

func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func itoa64(v int64) string { return fmt.Sprintf("%d", v) }

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// All runs every experiment (the benchtab "all" mode). full enlarges the
// sweeps.
func All(full bool) []*Table {
	return []*Table{
		Theorem2Hypercubes(full),
		Theorem3Variants(full),
		Theorem4KAry(full),
		Theorem5Stars(full),
		Theorem6Pancakes(full),
		Theorem7Arrangements(full),
		LookupAccounting(full),
		VersusChiangTan(full),
		VersusYang(full),
		DiagnosabilityTable(full),
		DistributedComparison(full),
		TestScheduling(full),
		BeyondGuarantee(full),
		AblationCertificate(full),
		AblationBehaviour(full),
	}
}

// ByID returns the experiment table with the given id (t2..t14, a1, a3).
func ByID(id string, full bool) (*Table, error) {
	switch strings.ToLower(id) {
	case "t2":
		return Theorem2Hypercubes(full), nil
	case "t3":
		return Theorem3Variants(full), nil
	case "t4":
		return Theorem4KAry(full), nil
	case "t5":
		return Theorem5Stars(full), nil
	case "t6":
		return Theorem6Pancakes(full), nil
	case "t7":
		return Theorem7Arrangements(full), nil
	case "t8":
		return LookupAccounting(full), nil
	case "t9":
		return VersusChiangTan(full), nil
	case "t10":
		return VersusYang(full), nil
	case "t11":
		return DiagnosabilityTable(full), nil
	case "t12":
		return DistributedComparison(full), nil
	case "t13":
		return TestScheduling(full), nil
	case "t14":
		return BeyondGuarantee(full), nil
	case "a1":
		return AblationCertificate(full), nil
	case "a3":
		return AblationBehaviour(full), nil
	}
	return nil, fmt.Errorf("experiments: unknown table id %q", id)
}
