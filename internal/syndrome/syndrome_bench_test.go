package syndrome

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/graph"
)

func benchCube(n int) *graph.Graph {
	return graph.FromAdjacency(1<<uint(n), func(dst []int32, u int32) []int32 {
		for b := 0; b < n; b++ {
			dst = append(dst, u^int32(1<<uint(b)))
		}
		return dst
	})
}

func BenchmarkLazyTestHealthy(b *testing.B) {
	g := benchCube(12)
	f := RandomFaults(g.N(), 12, rand.New(rand.NewSource(1)))
	s := NewLazy(f, Mimic{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(i & (g.N() - 1))
		adj := g.Neighbors(u)
		s.Test(u, adj[0], adj[1])
	}
}

func BenchmarkTableBuildQ10(b *testing.B) {
	g := benchCube(10)
	f := RandomFaults(g.N(), 10, rand.New(rand.NewSource(2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := BuildTable(g, NewLazy(f, AllZero{}))
		if t.Entries() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableTest(b *testing.B) {
	g := benchCube(10)
	f := RandomFaults(g.N(), 10, rand.New(rand.NewSource(3)))
	t := BuildTable(g, NewLazy(f, AllZero{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(i & (g.N() - 1))
		adj := g.Neighbors(u)
		t.Test(u, adj[0], adj[9])
	}
}

func BenchmarkConsistentQ8(b *testing.B) {
	g := benchCube(8)
	f := RandomFaults(g.N(), 8, rand.New(rand.NewSource(4)))
	s := NewLazy(f, Mimic{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Consistent(g, s, f) {
			b.Fatal("truth must be consistent")
		}
	}
}
