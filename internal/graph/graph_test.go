package graph

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/bitset"
)

// ring returns the cycle graph C_n.
func ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.MustAddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// grid returns the p×q grid graph.
func grid(p, q int) *Graph {
	b := NewBuilder(p * q)
	id := func(r, c int) int32 { return int32(r*q + c) }
	for r := 0; r < p; r++ {
		for c := 0; c < q; c++ {
			if r+1 < p {
				b.MustAddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < q {
				b.MustAddEdge(id(r, c), id(r, c+1))
			}
		}
	}
	return b.Build()
}

func TestBuilderDedupAndCounts(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 0) // duplicate in reverse orientation
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 3)
	g := b.Build()
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if g.Degree(1) != 2 {
		t.Fatalf("deg(1) = %d, want 2", g.Degree(1))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsSelfLoopAndRange(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("negative edge accepted")
	}
}

func TestHasEdge(t *testing.T) {
	g := ring(5)
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) {
		t.Fatal("expected ring edges missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected chord in ring")
	}
}

func TestDegreesAndRegularity(t *testing.T) {
	g := ring(6)
	if !g.IsRegular(2) {
		t.Fatal("ring should be 2-regular")
	}
	if g.MaxDegree() != 2 || g.MinDegree() != 2 {
		t.Fatalf("max/min degree = %d/%d, want 2/2", g.MaxDegree(), g.MinDegree())
	}
	h := grid(3, 3)
	if h.MaxDegree() != 4 || h.MinDegree() != 2 {
		t.Fatalf("grid max/min degree = %d/%d, want 4/2", h.MaxDegree(), h.MinDegree())
	}
}

func TestBFSDistances(t *testing.T) {
	g := ring(8)
	d := g.BFSFrom(0, nil)
	if d[4] != 4 || d[7] != 1 || d[3] != 3 {
		t.Fatalf("unexpected ring distances: %v", d)
	}
}

func TestBFSRestricted(t *testing.T) {
	g := ring(8)
	// Restrict to one arc of the ring: 0..3 only.
	set := bitset.New(8)
	for i := 0; i <= 3; i++ {
		set.Add(i)
	}
	d := g.BFSFrom(0, set)
	if d[3] != 3 {
		t.Fatalf("restricted distance to 3 = %d, want 3 (may not use 0-7-...-4 arc)", d[3])
	}
	if d[4] != -1 || d[7] != -1 {
		t.Fatalf("nodes outside restriction should be unreachable: %v", d)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(3, 4)
	g := b.Build()
	comps := g.Components()
	if len(comps) != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !ring(5).Connected() {
		t.Fatal("ring reported disconnected")
	}
}

func TestConnectedWithin(t *testing.T) {
	g := ring(6)
	set := bitset.New(6)
	set.Add(0)
	set.Add(1)
	set.Add(3)
	if g.ConnectedWithin(set) {
		t.Fatal("{0,1,3} in C6 is not connected")
	}
	set.Add(2)
	if !g.ConnectedWithin(set) {
		t.Fatal("{0,1,2,3} in C6 is connected")
	}
}

func TestNeighborsOfSet(t *testing.T) {
	g := ring(6)
	set := bitset.New(6)
	set.Add(0)
	set.Add(1)
	nb := g.NeighborsOfSet(set)
	want := bitset.FromMembers(6, []int32{2, 5})
	if !nb.Equal(want) {
		t.Fatalf("N({0,1}) = %v, want %v", nb, want)
	}
}

func TestEccentricity(t *testing.T) {
	if e := ring(8).Eccentricity(0); e != 4 {
		t.Fatalf("ecc = %d, want 4", e)
	}
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	if e := b.Build().Eccentricity(0); e != -1 {
		t.Fatalf("ecc of disconnected graph = %d, want -1", e)
	}
}

func TestArticulationPoints(t *testing.T) {
	// Path 0-1-2: node 1 is a cut vertex.
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	cuts := b.Build().ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != 1 {
		t.Fatalf("cuts = %v, want [1]", cuts)
	}
	if cuts := ring(6).ArticulationPoints(); len(cuts) != 0 {
		t.Fatalf("cycle has no cut vertices, got %v", cuts)
	}
	// Two triangles sharing node 2.
	b = NewBuilder(5)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 0)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(3, 4)
	b.MustAddEdge(4, 2)
	cuts = b.Build().ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cuts = %v, want [2]", cuts)
	}
}

func TestVertexConnectivitySmall(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"C5", ring(5), 2},
		{"K5", complete(5), 4},
		{"K2", complete(2), 1},
		{"grid3x3", grid(3, 3), 2},
		{"path3", func() *Graph {
			b := NewBuilder(3)
			b.MustAddEdge(0, 1)
			b.MustAddEdge(1, 2)
			return b.Build()
		}(), 1},
	}
	for _, c := range cases {
		if got := c.g.VertexConnectivity(); got != c.want {
			t.Errorf("κ(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestVertexConnectivityDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	if got := b.Build().VertexConnectivity(); got != 0 {
		t.Fatalf("κ = %d, want 0", got)
	}
}

func TestLocalConnectivity(t *testing.T) {
	// In C6, between opposite nodes there are exactly 2 disjoint paths.
	if lc := ring(6).LocalConnectivity(0, 3); lc != 2 {
		t.Fatalf("λ(0,3) in C6 = %d, want 2", lc)
	}
	// In K5 minus the edge {0,1}, λ(0,1) = 3 (through the other 3 nodes).
	b := NewBuilder(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if i == 0 && j == 1 {
				continue
			}
			b.MustAddEdge(int32(i), int32(j))
		}
	}
	if lc := b.Build().LocalConnectivity(0, 1); lc != 3 {
		t.Fatalf("λ(0,1) = %d, want 3", lc)
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency(4, func(dst []int32, u int32) []int32 {
		// C4 given redundantly from both sides.
		return append(dst, (u+1)%4, (u+3)%4)
	})
	if g.M() != 4 || !g.IsRegular(2) {
		t.Fatalf("C4 malformed: M=%d", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildCountingSortMatchesNaive cross-checks the O(m) counting-sort
// CSR construction against a naive per-node construction on random
// multigraphs (duplicates, both orientations, unsorted insertion).
func TestBuildCountingSortMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		b := NewBuilder(n)
		type edge struct{ u, v int32 }
		seen := map[edge]bool{}
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				continue
			}
			// Insert in random orientation, sometimes twice.
			b.MustAddEdge(u, v)
			if rng.Intn(3) == 0 {
				b.MustAddEdge(v, u)
			}
			if u > v {
				u, v = v, u
			}
			seen[edge{u, v}] = true
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g.M() != len(seen) {
			t.Fatalf("trial %d: M=%d, want %d unique edges", trial, g.M(), len(seen))
		}
		for e := range seen {
			if !g.HasEdge(e.u, e.v) || !g.HasEdge(e.v, e.u) {
				t.Fatalf("trial %d: edge %d-%d missing", trial, e.u, e.v)
			}
		}
	}
}

// TestNeighborsOfSetDensePath checks the dense-set complement scan of
// NeighborsOfSetInto against the sparse-path result.
func TestNeighborsOfSetDensePath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := benchCube(8)
	for trial := 0; trial < 20; trial++ {
		// Dense set: all nodes except a random handful.
		set := bitset.New(g.N())
		for u := 0; u < g.N(); u++ {
			set.Add(u)
		}
		for i := 0; i < 1+rng.Intn(12); i++ {
			set.Remove(rng.Intn(g.N()))
		}
		got := g.NeighborsOfSet(set) // takes the dense path
		// Reference: per-member neighbour marking.
		want := bitset.New(g.N())
		set.ForEach(func(i int) bool {
			for _, v := range g.Neighbors(int32(i)) {
				if !set.Contains(int(v)) {
					want.Add(int(v))
				}
			}
			return true
		})
		if !got.Equal(want) {
			t.Fatalf("trial %d: dense path %v, want %v", trial, got, want)
		}
	}
}
