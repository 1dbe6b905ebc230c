package comparisondiag

// One benchmark per evaluation artefact of the paper (see
// internal/experiments.ByID for the experiment index and cmd/benchtab
// for the table renderer).
// Benchmarks assert exactness on every iteration: a fast wrong answer
// must fail, not score.

import (
	"fmt"
	"math/rand"
	"testing"

	"comparisondiag/internal/baseline"
)

// benchDiagnose measures one Diagnose configuration with δ faults under
// the mimic adversary, reporting syndrome look-ups alongside time.
func benchDiagnose(b *testing.B, nw Network, opt Options) {
	b.Helper()
	g := nw.Graph()
	rng := rand.New(rand.NewSource(1))
	F := RandomFaults(g.N(), nw.Diagnosability(), rng)
	s := NewLazySyndrome(F, Mimic{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := DiagnoseOpts(nw, s, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(F) {
			b.Fatal("misdiagnosis")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Lookups())/float64(b.N), "lookups/op")
	b.ReportMetric(float64(SyndromeTableSize(g)), "tablesize")
}

// BenchmarkTheorem2Hypercube regenerates experiment E1 (Theorem 2).
func BenchmarkTheorem2Hypercube(b *testing.B) {
	for _, n := range []int{8, 10, 12, 14} {
		nw := NewHypercube(n)
		b.Run(fmt.Sprintf("Q%d", n), func(b *testing.B) { benchDiagnose(b, nw, Options{}) })
	}
}

// BenchmarkTheorem3Variants regenerates experiment E2 (Theorem 3).
func BenchmarkTheorem3Variants(b *testing.B) {
	for _, nw := range []Network{
		NewCrossedCube(10),
		NewTwistedCube(9),
		NewFoldedHypercube(10),
		NewEnhancedHypercube(10, 4),
		NewAugmentedCube(9),
		NewShuffleCube(10),
		NewTwistedNCube(10),
	} {
		b.Run(nw.Name(), func(b *testing.B) { benchDiagnose(b, nw, Options{}) })
	}
}

// BenchmarkTheorem4KAry regenerates experiment E3 (Theorem 4).
func BenchmarkTheorem4KAry(b *testing.B) {
	for _, nw := range []Network{
		NewKAryNCube(3, 5),
		NewKAryNCube(4, 4),
		NewKAryNCube(8, 3),
		NewAugmentedKAryNCube(7, 2),
	} {
		b.Run(nw.Name(), func(b *testing.B) { benchDiagnose(b, nw, Options{}) })
	}
}

// BenchmarkTheorem5NKStar regenerates experiment E4 (Theorem 5).
func BenchmarkTheorem5NKStar(b *testing.B) {
	for _, nw := range []Network{
		NewNKStar(7, 3),
		NewNKStar(8, 4),
		NewStar(7),
		NewStar(8),
	} {
		b.Run(nw.Name(), func(b *testing.B) { benchDiagnose(b, nw, Options{}) })
	}
}

// BenchmarkTheorem6Pancake regenerates experiment E5 (Theorem 6).
func BenchmarkTheorem6Pancake(b *testing.B) {
	for _, n := range []int{6, 7, 8} {
		nw := NewPancake(n)
		b.Run(nw.Name(), func(b *testing.B) { benchDiagnose(b, nw, Options{}) })
	}
}

// BenchmarkTheorem7Arrangement regenerates experiment E6 (Theorem 7).
func BenchmarkTheorem7Arrangement(b *testing.B) {
	for _, nk := range [][2]int{{6, 4}, {7, 3}, {7, 4}, {8, 4}} {
		nw := NewArrangement(nk[0], nk[1])
		b.Run(nw.Name(), func(b *testing.B) { benchDiagnose(b, nw, Options{}) })
	}
}

// BenchmarkLookupAccounting regenerates experiment E7 (Section 6): the
// lookups/op metric against the reported tablesize metric is the claim.
func BenchmarkLookupAccounting(b *testing.B) {
	for _, nw := range []Network{NewHypercube(12), NewStar(8), NewKAryNCube(4, 4)} {
		b.Run(nw.Name(), func(b *testing.B) { benchDiagnose(b, nw, Options{}) })
	}
}

// BenchmarkVsChiangTan regenerates experiment E8 (Sections 3/6).
func BenchmarkVsChiangTan(b *testing.B) {
	n := 10
	nw := NewHypercube(n)
	g := nw.Graph()
	F := RandomFaults(g.N(), n, rand.New(rand.NewSource(2)))
	b.Run("ours/Q10", func(b *testing.B) {
		s := NewLazySyndrome(F, Mimic{})
		for i := 0; i < b.N; i++ {
			got, _, err := Diagnose(nw, s)
			if err != nil || !got.Equal(F) {
				b.Fatal("diagnosis failed")
			}
		}
	})
	b.Run("chiangtan/Q10", func(b *testing.B) {
		starAt := func(x int32) (*ExtendedStar, error) { return HypercubeExtendedStar(n, x) }
		for i := 0; i < b.N; i++ {
			s := NewLazySyndrome(F, Mimic{}) // CT re-materialises the table
			got, _, err := CTDiagnose(g, s, starAt)
			if err != nil || !got.Equal(F) {
				b.Fatal("CT diagnosis failed")
			}
		}
	})
}

// BenchmarkVsYang regenerates experiment E9 (Section 3).
func BenchmarkVsYang(b *testing.B) {
	n := 10
	nw := NewHypercube(n)
	F := RandomFaults(nw.Graph().N(), n, rand.New(rand.NewSource(3)))
	b.Run("ours/Q10", func(b *testing.B) {
		s := NewLazySyndrome(F, Mimic{})
		for i := 0; i < b.N; i++ {
			got, _, err := Diagnose(nw, s)
			if err != nil || !got.Equal(F) {
				b.Fatal("diagnosis failed")
			}
		}
	})
	b.Run("yang/Q10", func(b *testing.B) {
		s := NewLazySyndrome(F, Mimic{})
		for i := 0; i < b.N; i++ {
			got, _, err := YangDiagnose(nw, s)
			if err != nil || !got.Equal(F) {
				b.Fatal("Yang diagnosis failed")
			}
		}
	})
}

// BenchmarkDiagnosability regenerates experiment E10 (exact δ).
func BenchmarkDiagnosability(b *testing.B) {
	for _, nw := range []Network{NewHypercube(3), NewHypercube(4), NewStar(4)} {
		b.Run(nw.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExactDiagnosability(nw.Graph(), nw.Graph().MinDegree()+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributed regenerates experiment E11 (Conclusions).
func BenchmarkDistributed(b *testing.B) {
	n := 8
	nw := NewHypercube(n)
	g := nw.Graph()
	F := RandomFaults(g.N(), n, rand.New(rand.NewSource(4)))
	s := NewLazySyndrome(F, Mimic{})
	_, stats, err := Diagnose(nw, s)
	if err != nil {
		b.Fatal(err)
	}
	seed := stats.Seed
	b.Run("wave/Q8", func(b *testing.B) {
		var tests int64
		for i := 0; i < b.N; i++ {
			got, st, err := RunWave(g, s, seed, 10000)
			if err != nil || !got.Equal(F) {
				b.Fatal("wave failed")
			}
			tests = st.Tests
		}
		b.ReportMetric(float64(tests), "tests")
	})
	stars := make([]*ExtendedStar, g.N())
	for x := range stars {
		es, err := HypercubeExtendedStar(n, int32(x))
		if err != nil {
			b.Fatal(err)
		}
		stars[x] = es
	}
	b.Run("distct/Q8", func(b *testing.B) {
		var tests int64
		for i := 0; i < b.N; i++ {
			got, st, err := RunDistCT(g, s, stars, 10000)
			if err != nil || !got.Equal(F) {
				b.Fatal("dist-CT failed")
			}
			tests = st.Tests
		}
		b.ReportMetric(float64(tests), "tests")
	})
}

// BenchmarkFigure1CycleDecomposition regenerates the Fig. 1 structure.
func BenchmarkFigure1CycleDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dec, err := baseline.NewCycleDecomposition(12, 4)
		if err != nil {
			b.Fatal(err)
		}
		if dec.Matching(0, 1) == nil {
			b.Fatal("missing matching")
		}
	}
}

// BenchmarkFigure2ExtendedStar regenerates the Fig. 2 structure, both
// analytically (hypercube) and by search (star graph).
func BenchmarkFigure2ExtendedStar(b *testing.B) {
	b.Run("analytic/Q12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := HypercubeExtendedStar(12, int32(i&4095)); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := NewStar(7)
	b.Run("search/S7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FindExtendedStar(st.Graph(), int32(i%st.Graph().N()), 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCertify regenerates ablation A1 (gap G1): the scan
// certificate vs the paper's contributor certificate on enlarged parts.
func BenchmarkAblationCertify(b *testing.B) {
	nw := NewHypercube(10)
	d := nw.Diagnosability()
	big, err := nw.Parts(2*d+2, d+1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scan/Q10", func(b *testing.B) { benchDiagnose(b, nw, Options{Strategy: StrategyScan}) })
	b.Run("paper2d2/Q10", func(b *testing.B) {
		benchDiagnose(b, nw, Options{Strategy: StrategyPaper, Parts: big})
	})
}

// BenchmarkAblationBehaviour regenerates ablation A3.
func BenchmarkAblationBehaviour(b *testing.B) {
	nw := NewHypercube(10)
	g := nw.Graph()
	for _, behavior := range AllBehaviors(5) {
		b.Run(behavior.Name()+"/Q10", func(b *testing.B) {
			F := RandomFaults(g.N(), nw.Diagnosability(), rand.New(rand.NewSource(6)))
			s := NewLazySyndrome(F, behavior)
			for i := 0; i < b.N; i++ {
				got, _, err := Diagnose(nw, s)
				if err != nil || !got.Equal(F) {
					b.Fatal("diagnosis failed")
				}
			}
		})
	}
}

// BenchmarkTestScheduling regenerates experiment T13: packing the
// demand-driven test set vs the full syndrome into one-port slots.
func BenchmarkTestScheduling(b *testing.B) {
	nw := NewHypercube(10)
	g := nw.Graph()
	F := RandomFaults(g.N(), 10, rand.New(rand.NewSource(12)))
	rec := NewTestRecorder(NewLazySyndrome(F, Mimic{}))
	if _, _, err := Diagnose(nw, rec); err != nil {
		b.Fatal(err)
	}
	demand := rec.Tests()
	full := FullSyndromeTests(g)
	b.Run("demand/Q10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := ScheduleTests(demand, g.N())
			if p.Rounds() == 0 {
				b.Fatal("empty plan")
			}
		}
	})
	b.Run("full/Q10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := ScheduleTests(full, g.N())
			if p.Rounds() == 0 {
				b.Fatal("empty plan")
			}
		}
	})
}

// BenchmarkCampaignSweep regenerates experiment T14's machinery.
func BenchmarkCampaignSweep(b *testing.B) {
	nw := NewHypercube(7)
	for i := 0; i < b.N; i++ {
		points := CampaignSweep(nw, CampaignConfig{
			MinFaults: 6, MaxFaults: 9, Trials: 8, Seed: int64(i),
		})
		if len(points) != 4 {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkSetBuilderOnly isolates the core procedure (final pass cost).
func BenchmarkSetBuilderOnly(b *testing.B) {
	for _, n := range []int{10, 12, 14} {
		nw := NewHypercube(n)
		g := nw.Graph()
		F := RandomFaults(g.N(), n, rand.New(rand.NewSource(7)))
		s := NewLazySyndrome(F, Mimic{})
		// A healthy seed.
		seed := int32(0)
		for F.Contains(int(seed)) {
			seed++
		}
		b.Run(fmt.Sprintf("Q%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := SetBuilder(g, s, seed, n, nil)
				if r.U.Count() == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkVerificationFallback covers the partition-free extension used
// for gap G3 instances such as S(6,2).
func BenchmarkVerificationFallback(b *testing.B) {
	nk := NewNKStar(6, 2)
	g := nk.Graph()
	F := RandomFaults(g.N(), 5, rand.New(rand.NewSource(8)))
	s := NewLazySyndrome(F, Mimic{})
	for i := 0; i < b.N; i++ {
		got, err := DiagnoseWithVerification(g, 5, s)
		if err != nil || !got.Equal(F) {
			b.Fatal("verification fallback failed")
		}
	}
}
