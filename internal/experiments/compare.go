package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"comparisondiag/internal/baseline"
	"comparisondiag/internal/core"
	"comparisondiag/internal/distsim"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// LookupAccounting regenerates the Section 6 claim: Set_Builder consults
// (Δ-1)(Δ/2 + |U_r| - 1) syndrome entries at most, far fewer than the
// complete syndrome table that full-table algorithms require.
func LookupAccounting(full bool) *Table {
	t := &Table{
		ID:    "T8",
		Title: "Section 6 — syndrome look-up economy (δ faults, mimic adversary)",
		Columns: []string{"instance", "N", "table size", "cert lkups", "final lkups",
			"paper bound", "total/table"},
	}
	instances := []topology.Network{
		topology.NewHypercube(10),
		topology.NewCrossedCube(10),
		topology.NewKAryNCube(4, 4),
		topology.NewStar(7),
		topology.NewPancake(7),
	}
	if full {
		instances = append(instances,
			topology.NewHypercube(14),
			topology.NewStar(9),
			topology.NewArrangement(8, 4),
		)
	}
	for _, nw := range instances {
		g := nw.Graph()
		r := measureDiagnose(nw, syndrome.Mimic{}, 5, 1)
		if !r.ok {
			t.Rows = append(t.Rows, []string{nw.Name(), itoa(g.N()), "-", "-", "-", "-", "ERR: " + r.errText})
			continue
		}
		d := float64(g.MaxDegree())
		bound := int64((d - 1) * (d/2 + float64(r.healthy) - 1))
		table := syndrome.TableSize(g)
		t.Rows = append(t.Rows, []string{
			nw.Name(), itoa(g.N()), itoa64(table), itoa64(r.certLookups), itoa64(r.finalLookups),
			itoa64(bound), fmt.Sprintf("%.4f", float64(r.totalLookups)/float64(table)),
		})
	}
	t.Notes = append(t.Notes,
		"final lkups ≤ paper bound (Δ-1)(Δ/2+|U_r|-1); total/table ≪ 1 is the §6 claim",
	)
	return t
}

// VersusChiangTan regenerates the Section 3/6 comparison: same O(ΔN)
// asymptotics, but Chiang–Tan must materialise and consult the complete
// syndrome table while Diagnose touches a fraction of it.
func VersusChiangTan(full bool) *Table {
	t := &Table{
		ID:    "T9",
		Title: "Sections 3/6 — Diagnose vs Chiang–Tan extended stars (δ faults)",
		Columns: []string{"instance", "N", "ours time", "CT time", "ours lkups",
			"CT table+rule", "lookup ratio"},
	}
	dims := []int{7, 8, 9, 10}
	if full {
		dims = append(dims, 11, 12)
	}
	rng := rand.New(rand.NewSource(77))
	for _, n := range dims {
		nw := topology.NewHypercube(n)
		g := nw.Graph()
		F := syndrome.RandomFaults(g.N(), n, rng)

		s := syndrome.NewLazy(F, syndrome.Mimic{})
		start := time.Now()
		ours, stats, err := core.Diagnose(nw, s)
		oursTime := time.Since(start)
		if err != nil || !ours.Equal(F) {
			t.Rows = append(t.Rows, []string{nw.Name(), itoa(g.N()), "-", "-", "-", "-", "ERR"})
			continue
		}

		sCT := syndrome.NewLazy(F, syndrome.Mimic{})
		starAt := func(x int32) (*baseline.ExtendedStar, error) { return baseline.HypercubeExtendedStar(n, x) }
		start = time.Now()
		ctF, ctStats, err := baseline.CTDiagnose(g, sCT, starAt)
		ctTime := time.Since(start)
		if err != nil || !ctF.Equal(F) {
			t.Rows = append(t.Rows, []string{nw.Name(), itoa(g.N()), "-", "-", "-", "-", "CT ERR"})
			continue
		}
		ctCost := ctStats.TableEntries + ctStats.RuleLookups
		t.Rows = append(t.Rows, []string{
			nw.Name(), itoa(g.N()), fmtDur(oursTime), fmtDur(ctTime),
			itoa64(stats.TotalLookups), itoa64(ctCost),
			fmt.Sprintf("%.4f", float64(stats.TotalLookups)/float64(ctCost)),
		})
	}
	// Star graphs, where CT additionally pays for star construction.
	starDims := []int{6, 7}
	if full {
		starDims = append(starDims, 8)
	}
	for _, n := range starDims {
		nw := topology.NewStar(n)
		g := nw.Graph()
		F := syndrome.RandomFaults(g.N(), n-1, rng)
		s := syndrome.NewLazy(F, syndrome.Mimic{})
		start := time.Now()
		ours, stats, err := core.Diagnose(nw, s)
		oursTime := time.Since(start)
		if err != nil || !ours.Equal(F) {
			t.Rows = append(t.Rows, []string{nw.Name(), itoa(g.N()), "-", "-", "-", "-", "ERR"})
			continue
		}
		sCT := syndrome.NewLazy(F, syndrome.Mimic{})
		starAt := func(x int32) (*baseline.ExtendedStar, error) {
			return baseline.FindExtendedStar(g, x, n-1)
		}
		start = time.Now()
		ctF, ctStats, err := baseline.CTDiagnose(g, sCT, starAt)
		ctTime := time.Since(start)
		status := "ok"
		if err != nil {
			status = "CT ERR"
		} else if !ctF.Equal(F) {
			status = "CT MISDIAGNOSIS"
		}
		if status != "ok" {
			t.Rows = append(t.Rows, []string{nw.Name(), itoa(g.N()), fmtDur(oursTime), "-", itoa64(stats.TotalLookups), "-", status})
			continue
		}
		ctCost := ctStats.TableEntries + ctStats.RuleLookups
		t.Rows = append(t.Rows, []string{
			nw.Name(), itoa(g.N()), fmtDur(oursTime), fmtDur(ctTime),
			itoa64(stats.TotalLookups), itoa64(ctCost),
			fmt.Sprintf("%.4f", float64(stats.TotalLookups)/float64(ctCost)),
		})
	}
	t.Notes = append(t.Notes,
		"CT time includes syndrome-table materialisation and per-node star work, as §6 argues it must")
	return t
}

// VersusYang regenerates the Section 3 comparison against Yang's
// O(n²·2^n) cycle algorithm (both are given identical fault sets).
func VersusYang(full bool) *Table {
	t := &Table{
		ID:      "T10",
		Title:   "Section 3 — Diagnose vs Yang's cycle decomposition on Q_n (δ = n faults)",
		Columns: []string{"instance", "N", "ours time", "Yang time", "ours lkups", "Yang lkups", "speed-up"},
	}
	dims := []int{7, 8, 9, 10, 11}
	if full {
		dims = append(dims, 12, 13, 14)
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range dims {
		nw := topology.NewHypercube(n)
		g := nw.Graph()
		F := syndrome.RandomFaults(g.N(), n, rng)

		s1 := syndrome.NewLazy(F, syndrome.Mimic{})
		start := time.Now()
		ours, stats, err := core.Diagnose(nw, s1)
		oursTime := time.Since(start)
		s2 := syndrome.NewLazy(F, syndrome.Mimic{})
		start = time.Now()
		yangF, yStats, yerr := baseline.YangDiagnose(nw, s2)
		yangTime := time.Since(start)
		if err != nil || yerr != nil || !ours.Equal(F) || !yangF.Equal(F) {
			t.Rows = append(t.Rows, []string{nw.Name(), itoa(g.N()), "-", "-", "-", "-", "ERR"})
			continue
		}
		t.Rows = append(t.Rows, []string{
			nw.Name(), itoa(g.N()), fmtDur(oursTime), fmtDur(yangTime),
			itoa64(stats.TotalLookups), itoa64(yStats.Lookups),
			fmt.Sprintf("%.2fx", float64(yangTime)/float64(oursTime)),
		})
	}
	t.Notes = append(t.Notes,
		"reproduction finding: reimplemented with early exit and O(1) bookkeeping, Yang's cycle idea matches O(n·2^n) and comparable look-ups — the O(n²·2^n) the paper cites is the original's bookkeeping, not the idea",
		"Stewart's qualitative advantages stand: no Hamiltonian-cycle construction, applies beyond hypercubes, and works for Q5/Q6 where Yang's decomposition has too few long cycles")
	return t
}

// DiagnosabilityTable validates the diagnosability claims the paper
// builds on ([6,14,23,28]) by exact exhaustive computation on small
// instances (experiment E10).
func DiagnosabilityTable(full bool) *Table {
	t := &Table{
		ID:      "T11",
		Title:   "Exact diagnosability of small instances vs literature formulas",
		Columns: []string{"instance", "N", "computed δ", "formula δ", "agrees", "witness (if capped)"},
	}
	type row struct {
		nw      topology.Network
		tMax    int
		formula int
		remark  string
	}
	rows := []row{
		{topology.NewHypercube(3), 3, 3, "below [6] threshold N ≥ 2n+3"},
		{topology.NewHypercube(4), 5, 4, ""},
		{topology.NewCrossedCube(4), 5, 4, ""},
		{topology.NewTwistedNCube(4), 5, 4, ""},
		{topology.NewKAryNCube(3, 2), 4, 4, "excluded pair (3,2) in Theorem 4"},
		{topology.NewStar(4), 4, 3, ""},
		{topology.NewPancake(4), 4, 3, ""},
		{topology.NewNKStar(4, 2), 4, 3, ""},
	}
	if full {
		rows = append(rows,
			row{topology.NewTwistedCube(5), 5, 5, "substituted construction"},
			row{topology.NewCrossedCube(5), 5, 5, ""},
			row{topology.NewArrangement(5, 2), 6, 6, ""},
		)
	}
	for _, r := range rows {
		res, err := baseline.Diagnosability(r.nw.Graph(), r.tMax)
		if err != nil {
			t.Rows = append(t.Rows, []string{r.nw.Name(), itoa(r.nw.Graph().N()), "ERR", itoa(r.formula), "-", err.Error()})
			continue
		}
		agrees := "yes"
		if res.Delta != r.formula {
			agrees = "NO — " + r.remark
		} else if r.remark != "" {
			agrees = "yes (" + r.remark + ")"
		}
		wit := "-"
		if res.Delta < r.tMax {
			wit = fmt.Sprintf("%#x vs %#x", res.Witness1, res.Witness2)
		}
		t.Rows = append(t.Rows, []string{
			r.nw.Name(), itoa(r.nw.Graph().N()), itoa(res.Delta), itoa(r.formula), agrees, wit,
		})
	}
	t.Notes = append(t.Notes,
		"witness = a pair of indistinguishable fault sets of size δ+1 (bit masks)")
	return t
}

// DistributedComparison regenerates the Conclusions claim: the
// distributed Set_Builder wave beats a distributed extended-star
// algorithm on tests, messages and one-port time.
func DistributedComparison(full bool) *Table {
	t := &Table{
		ID:    "T12",
		Title: "Conclusions — distributed wave Set_Builder vs distributed Chiang–Tan on Q_n (δ = n faults)",
		Columns: []string{"instance", "protocol", "rounds", "messages", "records",
			"tests", "one-port time"},
	}
	dims := []int{7, 8, 9}
	if full {
		dims = append(dims, 10, 11)
	}
	rng := rand.New(rand.NewSource(13))
	for _, n := range dims {
		nw := topology.NewHypercube(n)
		g := nw.Graph()
		F := syndrome.RandomFaults(g.N(), n, rng)
		s := syndrome.NewLazy(F, syndrome.Mimic{})

		_, dstats, err := core.Diagnose(nw, s)
		if err != nil {
			continue
		}
		seed := dstats.Seed
		waveF, wstats, err := distsim.RunWave(g, s, seed, 10000)
		if err != nil || !waveF.Equal(F) {
			t.Rows = append(t.Rows, []string{nw.Name(), "wave", "-", "-", "-", "-", "ERR"})
			continue
		}
		stars := make([]*baseline.ExtendedStar, g.N())
		ok := true
		for x := range stars {
			es, err := baseline.HypercubeExtendedStar(n, int32(x))
			if err != nil {
				ok = false
				break
			}
			stars[x] = es
		}
		if !ok {
			continue
		}
		ctF, cstats, err := distsim.RunDistCT(g, s, stars, 10000)
		if err != nil || !ctF.Equal(F) {
			t.Rows = append(t.Rows, []string{nw.Name(), "dist-CT", "-", "-", "-", "-", "ERR"})
			continue
		}
		parts, perr := nw.Parts(n+1, n+1)
		if perr != nil {
			continue
		}
		colF, colStats, err := distsim.RunCentralCollect(g, s, n, parts, 10000)
		if err != nil || !colF.Equal(F) {
			t.Rows = append(t.Rows, []string{nw.Name(), "central", "-", "-", "-", "-", "ERR"})
			continue
		}
		t.Rows = append(t.Rows,
			[]string{nw.Name(), "wave", itoa(wstats.Rounds), itoa64(wstats.Messages),
				itoa64(wstats.Records), itoa64(wstats.Tests), itoa64(wstats.OnePortTime)},
			[]string{nw.Name(), "dist-CT", itoa(cstats.Rounds), itoa64(cstats.Messages),
				itoa64(cstats.Records), itoa64(cstats.Tests), itoa64(cstats.OnePortTime)},
			[]string{nw.Name(), "central", itoa(colStats.Rounds), itoa64(colStats.Messages),
				itoa64(colStats.Records), itoa64(colStats.Tests), itoa64(colStats.OnePortTime)},
		)
	}
	t.Notes = append(t.Notes,
		"wave tests are demand-driven (Section 6 economy); dist-CT always performs 3·n·N tests",
		"central = collect the complete syndrome at node 0, then diagnose sequentially — the baseline setting the Conclusions argue against")
	return t
}

// AblationCertificate quantifies gap G1: how the paper's literal
// contributor certificate behaves at the paper's part sizes versus
// enlarged parts, against the scan certificate.
func AblationCertificate(full bool) *Table {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation — part certificates: paper contributor rule vs scan rule",
		Columns: []string{"instance", "certificate", "part size", "outcome", "total lkups"},
	}
	dims := []int{7, 8, 9, 10}
	if full {
		dims = append(dims, 11, 12)
	}
	for _, n := range dims {
		nw := topology.NewHypercube(n)
		d := nw.Diagnosability()

		for _, mode := range []struct {
			label   string
			strat   core.Strategy
			minSize int
		}{
			{"scan", core.StrategyScan, d + 1},
			{"paper δ+1", core.StrategyPaper, d + 1},
			{"paper 2δ+2", core.StrategyPaper, 2*d + 2},
		} {
			parts, err := nw.Parts(mode.minSize, d+1)
			if err != nil {
				t.Rows = append(t.Rows, []string{nw.Name(), mode.label, itoa(mode.minSize), "no partition", "-"})
				continue
			}
			r := measureDiagnoseWithParts(nw, parts, mode.strat)
			t.Rows = append(t.Rows, []string{nw.Name(), mode.label, itoa(len(parts[0].Nodes)), r[0], r[1]})
		}
	}
	t.Notes = append(t.Notes,
		"gap G1: at the paper's prescribed size the contributor count cannot exceed δ on subcube parts, so the paper rule fails; doubling the part size restores it")
	return t
}

func measureDiagnoseWithParts(nw topology.Network, parts []topology.Part, strat core.Strategy) [2]string {
	g := nw.Graph()
	rng := rand.New(rand.NewSource(4))
	F := syndrome.RandomFaults(g.N(), nw.Diagnosability(), rng)
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	got, stats, err := core.DiagnoseOpts(nw, s, core.Options{Strategy: strat, Parts: parts})
	switch {
	case errors.Is(err, core.ErrNoHealthyPart):
		return [2]string{"certificate failed (G1)", itoa64(stats.TotalLookups)}
	case err != nil:
		return [2]string{"ERR: " + err.Error(), "-"}
	case !got.Equal(F):
		return [2]string{"MISDIAGNOSIS", "-"}
	default:
		return [2]string{"exact", itoa64(stats.TotalLookups)}
	}
}

// AblationBehaviour measures sensitivity to the faulty-tester adversary.
func AblationBehaviour(full bool) *Table {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation — faulty-tester behaviour sensitivity (Q_10, δ = 10 faults)",
		Columns: []string{"behaviour", "time/diag", "cert lkups", "final lkups", "status"},
	}
	n := 10
	if full {
		n = 12
	}
	nw := topology.NewHypercube(n)
	for _, b := range syndrome.AllBehaviors(2024) {
		r := measureDiagnose(nw, b, 5, 6)
		if !r.ok {
			t.Rows = append(t.Rows, []string{b.Name(), "-", "-", "-", "ERR: " + r.errText})
			continue
		}
		t.Rows = append(t.Rows, []string{
			b.Name(), fmtDur(r.avgTime), itoa64(r.certLookups), itoa64(r.finalLookups), "exact",
		})
	}
	t.Notes = append(t.Notes,
		"correctness is behaviour-independent; only the certification cost varies slightly")
	return t
}
