package graph

import (
	"testing"

	"comparisondiag/internal/bitset"
)

// benchCube builds Q_n without importing the topology package (which
// would create an import cycle in benchmarks).
func benchCube(n int) *Graph {
	return FromAdjacency(1<<uint(n), func(dst []int32, u int32) []int32 {
		for b := 0; b < n; b++ {
			dst = append(dst, u^int32(1<<uint(b)))
		}
		return dst
	})
}

func BenchmarkBuildQ14(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := benchCube(14)
		if g.N() != 1<<14 {
			b.Fatal("bad size")
		}
	}
}

func BenchmarkBFSQ14(b *testing.B) {
	g := benchCube(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := g.BFSFrom(0, nil)
		if d[g.N()-1] != 14 {
			b.Fatal("bad distance")
		}
	}
}

func BenchmarkNeighborsOfSetQ12(b *testing.B) {
	g := benchCube(12)
	// Take the low quarter of the nodes as the set.
	s := bitset.New(g.N())
	for i := 0; i < g.N()/4; i++ {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb := g.NeighborsOfSet(s)
		if nb.Count() == 0 {
			b.Fatal("no boundary")
		}
	}
}

func BenchmarkVertexConnectivityQ6(b *testing.B) {
	g := benchCube(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.VertexConnectivity() != 6 {
			b.Fatal("wrong connectivity")
		}
	}
}

// BenchmarkNeighborsOfSetDenseQ14 measures the dense-set complement
// path (the diagnosis workload: the healthy set is all but δ nodes).
func BenchmarkNeighborsOfSetDenseQ14(b *testing.B) {
	g := benchCube(14)
	set := bitset.New(g.N())
	for u := 0; u < g.N(); u++ {
		set.Add(u)
	}
	for i := 0; i < 14; i++ {
		set.Remove(i * 1117)
	}
	out := bitset.New(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NeighborsOfSetInto(set, out)
		if out.Count() == 0 {
			b.Fatal("no boundary")
		}
	}
}
