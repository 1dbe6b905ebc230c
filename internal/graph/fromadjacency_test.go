package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// builderReference builds the same adjacency edge by edge through
// Builder, the construction FromAdjacency must reproduce exactly.
func builderReference(n int, appendNeighbors func(dst []int32, u int32) []int32) *Graph {
	b := NewBuilder(n)
	var buf []int32
	for u := int32(0); int(u) < n; u++ {
		buf = appendNeighbors(buf[:0], u)
		for _, v := range buf {
			b.MustAddEdge(u, v)
		}
	}
	return b.Build()
}

// exactCapacity reports whether g's target array carries no spare slots.
func exactCapacity(g *Graph) bool {
	_, targets := g.Adjacency()
	return cap(targets) == len(targets)
}

// panicMessage runs f and returns what it panicked with, or "" if it
// returned normally.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func listAdjacency(lists [][]int32) func(dst []int32, u int32) []int32 {
	return func(dst []int32, u int32) []int32 { return append(dst, lists[u]...) }
}

func TestFromAdjacencyMatchesBuilder(t *testing.T) {
	cube := func(dst []int32, u int32) []int32 {
		for b := 0; b < 5; b++ {
			dst = append(dst, u^int32(1<<uint(b)))
		}
		return dst
	}
	cases := []struct {
		name  string
		n     int
		neigh func(dst []int32, u int32) []int32
	}{
		{"Q5", 32, cube},
		{"empty", 0, nil},
		{"single node", 1, listAdjacency([][]int32{{}})},
		// Non-regular: node 0's degree over- and under-sizes the array.
		{"star K1,4", 5, listAdjacency([][]int32{{1, 2, 3, 4}, {0}, {0}, {0}, {0}})},
		{"path P4", 4, listAdjacency([][]int32{{1}, {2, 0}, {1, 3}, {2}})},
		{"isolated node 0", 3, listAdjacency([][]int32{{}, {2}, {1}})},
		// Unsorted, repeated neighbours.
		{"C5 noisy", 5, listAdjacency([][]int32{{4, 1, 4}, {2, 0, 2, 0}, {3, 1}, {2, 4, 2}, {0, 3, 0}})},
	}
	for _, tc := range cases {
		g := FromAdjacency(tc.n, tc.neigh)
		if ref := builderReference(tc.n, tc.neigh); !sameCSR(g, ref) {
			t.Errorf("%s: CSR differs from the Builder reference", tc.name)
		}
		if !exactCapacity(g) {
			t.Errorf("%s: target array has spare capacity", tc.name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestFromAdjacencyRejects(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]int32
		want  string
	}{
		{"self-loop", [][]int32{{1}, {0, 1}}, "self-loop at node 1"},
		{"negative id", [][]int32{{-1}}, "neighbour -1 of node 0 out of range"},
		{"id past n", [][]int32{{1}, {0, 2}}, "neighbour 2 of node 1 out of range"},
		{"reverse missing later", [][]int32{{1, 2}, {0}, {}}, "arc 0→2 has no reverse"},
		{"reverse missing earlier", [][]int32{{1}, {0}, {0}}, "arc 2→0 has no reverse"},
		{"unread entry below the prober", [][]int32{{}, {2}, {0, 1}}, "arc 2→0 has no reverse"},
		// Strictly ascending blocks take the same dedup and transpose
		// passes as any listing and must name the same arcs and bad ids.
		{"ascending: reverse missing below the prober", [][]int32{{1}, {0, 3}, {}, {0, 1}}, "arc 3→0 has no reverse"},
		{"ascending: reverse missing above the prober", [][]int32{{2}, {2}, {0, 3}, {2}}, "arc 1→2 has no reverse"},
		{"ascending: over-listed node", [][]int32{{2}, {2}, {0}}, "arc 1→2 has no reverse"},
		{"ascending: self-loop", [][]int32{{1}, {0, 1, 2}, {1}}, "self-loop at node 1"},
		{"ascending: id past n", [][]int32{{1}, {0, 3}, {}}, "neighbour 3 of node 1 out of range"},
		{"ascending: negative id", [][]int32{{1}, {-1, 0}}, "neighbour -1 of node 1 out of range"},
	}
	for _, tc := range cases {
		msg := panicMessage(func() { FromAdjacency(len(tc.lists), listAdjacency(tc.lists)) })
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s: panic %q, want it to mention %q", tc.name, msg, tc.want)
		}
	}
}

// TestFromAdjacencyRefusesInt32Overflow pins that graphs whose node ids
// or arc offsets overflow int32 are refused up front, before anything
// proportional to n is allocated.
func TestFromAdjacencyRefusesInt32Overflow(t *testing.T) {
	called := false
	msg := panicMessage(func() {
		FromAdjacency(math.MaxInt32+1, func(dst []int32, u int32) []int32 {
			called = true
			return dst
		})
	})
	if !strings.Contains(msg, "int32 node ids") || called {
		t.Errorf("n > MaxInt32: panic %q, callback called %v", msg, called)
	}

	// Q27: 2^27 nodes of degree 27 is 3.6·10^9 arcs.
	const dim = 27
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msg = panicMessage(func() {
		FromAdjacency(1<<dim, func(dst []int32, u int32) []int32 {
			if u != 0 {
				t.Errorf("callback reached node %d", u)
			}
			for b := 0; b < dim; b++ {
				dst = append(dst, u^int32(1<<uint(b)))
			}
			return dst
		})
	})
	runtime.ReadMemStats(&after)
	if !strings.Contains(msg, "beyond int32 CSR offsets") {
		t.Errorf("Q27: panic %q, want an int32 offsets refusal", msg)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("Q27 refusal allocated %d bytes", grew)
	}
}

func TestBuilderExactCapacity(t *testing.T) {
	b := NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 3}, {3, 4}, {4, 3}} {
		b.MustAddEdge(e[0], e[1])
	}
	g := b.Build()
	if g.M() != 3 || !exactCapacity(g) {
		_, targets := g.Adjacency()
		t.Fatalf("M = %d, len/cap(targets) = %d/%d, want 3 edges at exact capacity", g.M(), len(targets), cap(targets))
	}
	if g := NewBuilder(4).Build(); !exactCapacity(g) || g.M() != 0 {
		t.Fatal("edgeless build not empty and exact")
	}
}

// decodeAdjacency turns fuzz bytes into a small adjacency: data[0] picks
// n in [1,10], data[1]'s low bit asks for every in-range arc to be
// mirrored, and each following byte pair (a, b) appends neighbour
// b mod (n+2) − 1 to node a mod n, so ids −1 and n fall out of range and
// self-loops, duplicates and any order occur naturally.
func decodeAdjacency(data []byte) (n int, lists [][]int32) {
	if len(data) < 2 {
		return 1, [][]int32{{}}
	}
	n = 1 + int(data[0])%10
	mirror := data[1]&1 == 1
	lists = make([][]int32, n)
	for i := 2; i+1 < len(data); i += 2 {
		u := int32(int(data[i]) % n)
		v := int32(int(data[i+1])%(n+2)) - 1
		lists[u] = append(lists[u], v)
		if mirror && v >= 0 && int(v) < n {
			lists[v] = append(lists[v], u)
		}
	}
	return n, lists
}

// FuzzFromAdjacency checks FromAdjacency against an independent model:
// the first bad entry in node order names the self-loop or range panic;
// otherwise an asymmetric arc set panics naming an arc whose reverse is
// truly absent, and a symmetric one yields the Builder reference CSR at
// exact capacity. Every input runs twice, for input variety: as listed,
// and with each block sorted and deduplicated first, the shape every
// descriptor-generated listing has.
func FuzzFromAdjacency(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, lists := decodeAdjacency(data)
		checkFromAdjacency(t, n, lists)
		ascending := make([][]int32, n)
		for u, l := range lists {
			l = slices.Clone(l)
			slices.Sort(l)
			ascending[u] = slices.Compact(l)
		}
		checkFromAdjacency(t, n, ascending)
	})
}

// checkFromAdjacency runs FromAdjacency on lists and checks the outcome
// against the model FuzzFromAdjacency describes.
func checkFromAdjacency(t *testing.T, n int, lists [][]int32) {
	t.Helper()
	msg := panicMessage(func() {
		g := FromAdjacency(n, listAdjacency(lists))
		if ref := builderReference(n, listAdjacency(lists)); !sameCSR(g, ref) {
			t.Fatalf("CSR differs from the Builder reference for %v", lists)
		}
		if !exactCapacity(g) {
			t.Fatalf("target array has spare capacity for %v", lists)
		}
	})
	for u, l := range lists {
		for _, v := range l {
			switch {
			case int(v) == u:
				if want := fmt.Sprintf("self-loop at node %d", u); !strings.Contains(msg, want) {
					t.Fatalf("panic %q, want %q for %v", msg, want, lists)
				}
				return
			case v < 0 || int(v) >= n:
				if want := fmt.Sprintf("neighbour %d of node %d out of range", v, u); !strings.Contains(msg, want) {
					t.Fatalf("panic %q, want %q for %v", msg, want, lists)
				}
				return
			}
		}
	}
	arcs := map[[2]int32]bool{}
	for u, l := range lists {
		for _, v := range l {
			arcs[[2]int32{int32(u), v}] = true
		}
	}
	symmetric := true
	for a := range arcs {
		symmetric = symmetric && arcs[[2]int32{a[1], a[0]}]
	}
	if symmetric {
		if msg != "" {
			t.Fatalf("symmetric input %v panicked: %s", lists, msg)
		}
		return
	}
	var u, v int32
	if _, err := fmt.Sscanf(msg, "graph: arc %d→%d", &u, &v); err != nil {
		t.Fatalf("asymmetric input %v: panic %q names no arc", lists, msg)
	}
	if !arcs[[2]int32{u, v}] || arcs[[2]int32{v, u}] {
		t.Fatalf("asymmetric input %v: named arc %d→%d is not one missing its reverse", lists, u, v)
	}
}
