package core

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// BenchmarkFinalKernels compares each structure kernel against the
// generic pass (the driver with a nil rounder) on the same instance
// and syndrome — the isolated final-pass half of the
// diagnosebatch-vs-generic perf cases.
func BenchmarkFinalKernels(b *testing.B) {
	for _, nw := range []topology.Network{
		topology.NewFoldedHypercube(12),
		topology.NewAugmentedCube(10),
		topology.NewKAryNCube(4, 7),
		topology.NewHypercube(14),
	} {
		g := nw.Graph()
		delta := nw.Diagnosability()
		k := bindFinalKernel(nw.(topology.CayleyStructured).CayleyStructure(), g)
		if k == nil {
			b.Fatalf("%s: no kernel", nw.Name())
		}
		F := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(1)))
		seed := int32(0)
		for F.Contains(int(seed)) {
			seed++
		}
		s := syndrome.NewLazy(F, syndrome.Mimic{})
		sc := NewScratch(g.N())
		b.Run("kernel/"+nw.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFinalPass(sc, g, s, seed, delta, k)
			}
		})
		b.Run("generic/"+nw.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFinalPass(sc, g, s, seed, delta, nil)
			}
		})
	}
}
