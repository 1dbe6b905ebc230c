package core

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestShareCertificationAccounting pins the grouped-batch contract:
// syndromes of one fault hypothesis share the representative's part
// scan and final prefix. For every member (non-representative): the
// fault set and the final-pass shape are bit-identical to an individual
// call, its own final look-ups plus the adopted prefix's equal the
// free-function final look-ups, the syndrome is only consulted during
// its final pass, and the Stats record the shared verdict —
// CertifiedPart and PartsScanned copied from the representative,
// CertLookups pinned to 0, TotalLookups equal to FinalLookups.
// Representatives and hypotheses outside the guards keep free-function
// Stats exactly.
func TestShareCertificationAccounting(t *testing.T) {
	nw := topology.NewHypercube(9)
	g := nw.Graph()
	delta := nw.Diagnosability()
	eng := NewEngine(nw)

	behaviors := []syndrome.Behavior{syndrome.Mimic{}, syndrome.AllZero{}, syndrome.Inverted{}}
	hyps := []int{1, delta / 2, delta}
	var syns, refs []syndrome.Syndrome
	for h, f := range hyps {
		F := syndrome.RandomFaults(g.N(), f, rand.New(rand.NewSource(int64(600+h))))
		for _, b := range behaviors {
			syns = append(syns, syndrome.NewLazy(F, b))
			refs = append(refs, syndrome.NewLazy(F, b))
		}
	}
	// A beyond-bound hypothesis must be excluded from grouping and keep
	// full individual accounting.
	beyond := syndrome.RandomFaults(g.N(), delta+2, rand.New(rand.NewSource(99)))
	syns = append(syns, syndrome.NewLazy(beyond, syndrome.Mimic{}), syndrome.NewLazy(beyond, syndrome.AllZero{}))
	refs = append(refs, syndrome.NewLazy(beyond, syndrome.Mimic{}), syndrome.NewLazy(beyond, syndrome.AllZero{}))

	results := eng.DiagnoseBatch(syns, BatchOptions{ShareHypotheses: true})

	perGroup := len(behaviors)
	grouped := len(hyps) * perGroup
	for i, r := range results {
		want, wantStats, wantErr := Diagnose(nw, refs[i])
		if (r.Err == nil) != (wantErr == nil) {
			t.Fatalf("syndrome %d: err %v vs %v", i, r.Err, wantErr)
		}
		if wantErr == nil && !r.Faults.Equal(want) {
			t.Fatalf("syndrome %d: fault set differs from individual call", i)
		}
		isMember := i < grouped && i%perGroup != 0
		if !isMember {
			// Representatives and ungrouped syndromes: free-function
			// accounting, bit for bit.
			if wantStats != nil && r.Stats != *wantStats {
				t.Fatalf("syndrome %d: representative stats %+v differ from free-function %+v", i, r.Stats, *wantStats)
			}
			if syns[i].Lookups() != refs[i].Lookups() {
				t.Fatalf("syndrome %d: representative look-up counter diverged", i)
			}
			continue
		}
		rep := results[(i/perGroup)*perGroup]
		if r.Stats.CertLookups != 0 {
			t.Fatalf("syndrome %d: member spent %d certification look-ups, want 0", i, r.Stats.CertLookups)
		}
		if r.Stats.CertifiedPart != rep.Stats.CertifiedPart || r.Stats.PartsScanned != rep.Stats.PartsScanned {
			t.Fatalf("syndrome %d: member verdict (%d,%d) differs from representative (%d,%d)",
				i, r.Stats.CertifiedPart, r.Stats.PartsScanned, rep.Stats.CertifiedPart, rep.Stats.PartsScanned)
		}
		if wantStats != nil {
			if r.Stats.FinalLookups+r.Stats.SharedFinalLookups != wantStats.FinalLookups {
				t.Fatalf("syndrome %d: member final pass spent %d + %d shared look-ups, free function %d",
					i, r.Stats.FinalLookups, r.Stats.SharedFinalLookups, wantStats.FinalLookups)
			}
			if r.Stats.Seed != wantStats.Seed || r.Stats.Rounds != wantStats.Rounds ||
				r.Stats.HealthyCount != wantStats.HealthyCount || r.Stats.FaultCount != wantStats.FaultCount {
				t.Fatalf("syndrome %d: member final-pass shape differs from free function", i)
			}
		}
		if r.Stats.TotalLookups != r.Stats.FinalLookups {
			t.Fatalf("syndrome %d: member total %d ≠ final %d", i, r.Stats.TotalLookups, r.Stats.FinalLookups)
		}
		if syns[i].Lookups() != r.Stats.FinalLookups {
			t.Fatalf("syndrome %d: member syndrome consulted %d times, final pass reports %d",
				i, syns[i].Lookups(), r.Stats.FinalLookups)
		}
	}
}

// TestShareCertificationPaperStrategyUngrouped pins the guard: the
// paper's contributor certificate grows a restricted Set_Builder whose
// verdict depends on faulty-tester behaviour inside mixed parts, so
// StrategyPaper batches must not share scans — every syndrome
// certifies individually and total look-ups match the free functions.
func TestShareCertificationPaperStrategyUngrouped(t *testing.T) {
	nw := topology.NewHypercube(7)
	delta := nw.Diagnosability()
	parts, err := nw.Parts(2*delta+2, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(4)))
	syns := []syndrome.Syndrome{
		syndrome.NewLazy(F, syndrome.Mimic{}),
		syndrome.NewLazy(F, syndrome.AllZero{}),
	}
	refs := []syndrome.Syndrome{
		syndrome.NewLazy(F, syndrome.Mimic{}),
		syndrome.NewLazy(F, syndrome.AllZero{}),
	}
	eng := NewEngine(nw)
	opt := Options{Strategy: StrategyPaper, Parts: parts}
	for i, r := range eng.DiagnoseBatch(syns, BatchOptions{ShareHypotheses: true, Options: opt}) {
		want, wantStats, wantErr := DiagnoseOpts(nw, refs[i], opt)
		if (r.Err == nil) != (wantErr == nil) {
			t.Fatalf("syndrome %d: err %v vs %v", i, r.Err, wantErr)
		}
		if wantErr == nil && (!r.Faults.Equal(want) || r.Stats != *wantStats) {
			t.Fatalf("syndrome %d: paper-strategy batch diverged from individual call", i)
		}
		if syns[i].Lookups() != refs[i].Lookups() {
			t.Fatalf("syndrome %d: paper-strategy member skipped its own certification", i)
		}
	}
}

// TestShareCertificationOnExternalPool runs the grouped batch on an
// externally supplied BatchPool (the campaign.Runtime shape, modelled
// here by a trivial sequential pool) to pin the Pool plumbing.
type seqPool struct{ e *Engine }

func (p seqPool) RunScratch(n int, fn func(sc *Scratch, i int)) {
	sc := p.e.AcquireScratch()
	defer p.e.ReleaseScratch(sc)
	for i := 0; i < n; i++ {
		fn(sc, i)
	}
}

func TestShareCertificationOnExternalPool(t *testing.T) {
	nw := topology.NewHypercube(8)
	delta := nw.Diagnosability()
	F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(12)))
	syns := []syndrome.Syndrome{
		syndrome.NewLazy(F, syndrome.Mimic{}),
		syndrome.NewLazy(F, syndrome.Inverted{}),
		syndrome.NewLazy(F, syndrome.AllOne{}),
	}
	eng := NewEngine(nw)
	results := eng.DiagnoseBatch(syns, BatchOptions{ShareHypotheses: true, Pool: seqPool{eng}})
	for i, r := range results {
		want, _, wantErr := Diagnose(nw, syndrome.NewLazy(F, syns[i].(*syndrome.Lazy).Behavior()))
		if (r.Err == nil) != (wantErr == nil) || (wantErr == nil && !r.Faults.Equal(want)) {
			t.Fatalf("syndrome %d: pooled grouped batch diverged", i)
		}
	}
	if results[1].Stats.CertLookups != 0 || results[2].Stats.CertLookups != 0 {
		t.Fatal("members on the external pool did not share the scan")
	}
}
