package core

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestEngineBatchMatchesFreeLoopOnStructuredFamilies is the serving-
// path equivalence pin for the new kernels: Engine.DiagnoseBatch on a
// kernel-bound engine must produce, per syndrome, the same fault set
// and the same look-up count as the looped paper-literal free function.
func TestEngineBatchMatchesFreeLoopOnStructuredFamilies(t *testing.T) {
	nets := []topology.Network{
		topology.NewFoldedHypercube(8), // xor-cayley[multi-bit]
		topology.NewAugmentedCube(8),   // xor-cayley[multi-bit]
		topology.NewKAryNCube(4, 4),    // additive-rotate, word-aligned
		topology.NewKAryNCube(3, 5),    // additive-rotate, ragged tail
	}
	const trials = 12
	for _, nw := range nets {
		eng := NewEngine(nw)
		if eng.KernelName() == "generic" {
			t.Fatalf("%s: expected a structure kernel", nw.Name())
		}
		g := nw.Graph()
		delta := nw.Diagnosability()

		syns := make([]syndrome.Syndrome, trials)
		refs := make([]syndrome.Syndrome, trials)
		faults := make([]int, trials)
		for i := range syns {
			f := 1 + i%(delta+2) // spans healthy-dominant through beyond-δ
			faults[i] = f
			F := syndrome.RandomFaults(g.N(), f, rand.New(rand.NewSource(int64(i))))
			syns[i] = syndrome.NewLazy(F, syndrome.Mimic{})
			refs[i] = syndrome.NewLazy(F, syndrome.Mimic{})
		}
		results := eng.DiagnoseBatch(syns, BatchOptions{Workers: 3})
		for i, r := range results {
			want, wantStats, wantErr := Diagnose(nw, refs[i])
			if (r.Err == nil) != (wantErr == nil) {
				t.Fatalf("%s syndrome %d (f=%d): err %v vs %v", nw.Name(), i, faults[i], r.Err, wantErr)
			}
			if wantErr == nil && !r.Faults.Equal(want) {
				t.Fatalf("%s syndrome %d: fault sets differ", nw.Name(), i)
			}
			if wantErr == nil && r.Stats.TotalLookups != wantStats.TotalLookups {
				t.Fatalf("%s syndrome %d: lookups %d vs free-function %d",
					nw.Name(), i, r.Stats.TotalLookups, wantStats.TotalLookups)
			}
			if syns[i].Lookups() != refs[i].Lookups() {
				t.Fatalf("%s syndrome %d: syndrome counters diverged", nw.Name(), i)
			}
		}
	}
}

// TestGenericFinalOptionMatchesKernel pins the ablation knob: with
// Options.GenericFinal the engine must take the generic pass and still produce identical results and look-up counts.
func TestGenericFinalOptionMatchesKernel(t *testing.T) {
	for _, nw := range []topology.Network{
		topology.NewFoldedHypercube(8),
		topology.NewKAryNCube(4, 4),
	} {
		eng := NewEngine(nw)
		delta := nw.Diagnosability()
		for trial := int64(0); trial < 5; trial++ {
			F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(trial)))
			sKer := syndrome.NewLazy(F, syndrome.Mimic{})
			sGen := syndrome.NewLazy(F, syndrome.Mimic{})
			got, gotStats, err := eng.Diagnose(sKer)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := eng.DiagnoseOpts(sGen, Options{GenericFinal: true})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || gotStats.TotalLookups != wantStats.TotalLookups {
				t.Fatalf("%s trial %d: kernel and generic paths diverge (%d vs %d lookups)",
					nw.Name(), trial, gotStats.TotalLookups, wantStats.TotalLookups)
			}
		}
	}
}

// TestEngineKernelWarmZeroAllocs extends the zero-allocation contract
// to the new kernels: a warm engine Diagnose through the multi-bit XOR
// kernel and the additive-rotate kernel allocates nothing.
func TestEngineKernelWarmZeroAllocs(t *testing.T) {
	for _, nw := range []topology.Network{
		topology.NewFoldedHypercube(9),
		topology.NewKAryNCube(4, 4),
	} {
		eng := NewEngine(nw)
		if eng.KernelName() == "generic" {
			t.Fatalf("%s: expected a structure kernel", nw.Name())
		}
		delta := nw.Diagnosability()
		F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(3)))
		s := syndrome.NewLazy(F, syndrome.Mimic{})
		sc := eng.AcquireScratch()
		defer eng.ReleaseScratch(sc)
		opt := Options{Scratch: sc}
		if _, _, err := eng.DiagnoseOpts(s, opt); err != nil { // warm
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			got, _, err := eng.DiagnoseOpts(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(F) {
				t.Fatal("misdiagnosis")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warm kernel Diagnose allocated %.1f objects/op, want 0", nw.Name(), allocs)
		}
	}
}
