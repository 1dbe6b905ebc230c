package graph

import (
	"math/rand"
	"testing"
)

// Local family constructors: the graph package cannot import topology
// (topology sits above it), so the canonical Cayley families are
// rebuilt here from their defining adjacency rules.

func hyperGraph(n int) *Graph {
	return FromAdjacency(1<<uint(n), func(dst []int32, u int32) []int32 {
		for b := 0; b < n; b++ {
			dst = append(dst, u^int32(1<<uint(b)))
		}
		return dst
	})
}

func foldedGraph(n int) *Graph {
	full := int32(1<<uint(n) - 1)
	return FromAdjacency(1<<uint(n), func(dst []int32, u int32) []int32 {
		for b := 0; b < n; b++ {
			dst = append(dst, u^int32(1<<uint(b)))
		}
		return append(dst, u^full)
	})
}

func augmentedGraph(n int) *Graph {
	return FromAdjacency(1<<uint(n), func(dst []int32, u int32) []int32 {
		for b := 0; b < n; b++ {
			dst = append(dst, u^int32(1<<uint(b)))
		}
		for i := 1; i < n; i++ {
			dst = append(dst, u^int32(1<<uint(i+1)-1))
		}
		return dst
	})
}

func karyGraph(k, n int) *Graph {
	N := 1
	for i := 0; i < n; i++ {
		N *= k
	}
	return FromAdjacency(N, func(dst []int32, u int32) []int32 {
		stride := int32(1)
		x := u
		for d := 0; d < n; d++ {
			digit := x % int32(k)
			up, down := u+stride, u-stride
			if digit == int32(k-1) {
				up = u - int32(k-1)*stride
			}
			if digit == 0 {
				down = u + int32(k-1)*stride
			}
			dst = append(dst, up, down)
			x /= int32(k)
			stride *= int32(k)
		}
		return dst
	})
}

// mixedTorus builds the torus with per-dimension arities (±1 in each
// digit, every digit wrapping modulo its own radix) — additive
// structure no uniform-k AdditiveCayley can express.
func mixedTorus(radices []int) *Graph {
	N := 1
	for _, k := range radices {
		N *= k
	}
	return FromAdjacency(N, func(dst []int32, u int32) []int32 {
		stride := int32(1)
		x := u
		for _, k := range radices {
			digit := x % int32(k)
			up, down := u+stride, u-stride
			if digit == int32(k-1) {
				up = u - int32(k-1)*stride
			}
			if digit == 0 {
				down = u + int32(k-1)*stride
			}
			dst = append(dst, up, down)
			x /= int32(k)
			stride *= int32(k)
		}
		return dst
	})
}

// mixedTorusDescriptor declares mixedTorus: ± unit vectors per digit.
func mixedTorusDescriptor(radices []int) MixedRadixCayley {
	var gens [][]int
	for d, k := range radices {
		up := make([]int, len(radices))
		down := make([]int, len(radices))
		up[d], down[d] = 1, k-1
		gens = append(gens, up, down)
	}
	return MixedRadixCayley{Radices: radices, Gens: gens}
}

// augKaryGraph rebuilds the augmented k-ary n-cube adjacency (torus
// edges plus ± runs over the i low digits, every digit wrapping
// independently).
func augKaryGraph(k, n int) *Graph {
	N := 1
	for i := 0; i < n; i++ {
		N *= k
	}
	digits := make([]int32, n)
	return FromAdjacency(int(N), func(dst []int32, u int32) []int32 {
		x := u
		for d := 0; d < n; d++ {
			digits[d] = x % int32(k)
			x /= int32(k)
		}
		add := func(length, sign int) int32 {
			v := u
			stride := int32(1)
			for d := 0; d < length; d++ {
				nd := (digits[d] + int32(sign) + int32(k)) % int32(k)
				v += (nd - digits[d]) * stride
				stride *= int32(k)
			}
			return v
		}
		stride := int32(1)
		for d := 0; d < n; d++ {
			up, down := u+stride, u-stride
			if digits[d] == int32(k-1) {
				up = u - int32(k-1)*stride
			}
			if digits[d] == 0 {
				down = u + int32(k-1)*stride
			}
			dst = append(dst, up, down)
			stride *= int32(k)
		}
		for i := 2; i <= n; i++ {
			dst = append(dst, add(i, 1), add(i, -1))
		}
		return dst
	})
}

// augKaryDescriptor declares augKaryGraph.
func augKaryDescriptor(k, n int) MixedRadixCayley {
	radices := make([]int, n)
	for d := range radices {
		radices[d] = k
	}
	var gens [][]int
	for d := 0; d < n; d++ {
		up := make([]int, n)
		down := make([]int, n)
		up[d], down[d] = 1, k-1
		gens = append(gens, up, down)
	}
	for i := 2; i <= n; i++ {
		up := make([]int, n)
		down := make([]int, n)
		for d := 0; d < i; d++ {
			up[d], down[d] = 1, k-1
		}
		gens = append(gens, up, down)
	}
	return MixedRadixCayley{Radices: radices, Gens: gens}
}

func hyperMasks(n int) []int32 {
	masks := make([]int32, n)
	for b := range masks {
		masks[b] = 1 << uint(b)
	}
	return masks
}

func TestVerifyXORCayleyAcceptsFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		d    XORCayley
	}{
		{"Q8", hyperGraph(8), XORCayley{Bits: 8, Masks: hyperMasks(8)}},
		{"FQ8", foldedGraph(8), XORCayley{Bits: 8, Masks: append(hyperMasks(8), 0xff)}},
		{"AQ6", augmentedGraph(6), XORCayley{Bits: 6, Masks: append(hyperMasks(6), 3, 7, 15, 31, 63)}},
	}
	for _, c := range cases {
		if err := VerifyCayley(c.g, c.d); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestVerifyAdditiveCayleyAcceptsTori(t *testing.T) {
	for _, c := range []struct{ k, n int }{{4, 3}, {3, 4}, {5, 2}} {
		g := karyGraph(c.k, c.n)
		if err := VerifyCayley(g, AdditiveCayley{K: c.k, Dims: c.n}); err != nil {
			t.Errorf("Q^%d_%d: %v", c.k, c.n, err)
		}
	}
}

func TestVerifyMixedRadixCayleyAcceptsFamilies(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
		d    MixedRadixCayley
	}{
		{"AQ(3,3)", augKaryGraph(3, 3), augKaryDescriptor(3, 3)},
		{"AQ(2,4)", augKaryGraph(4, 2), augKaryDescriptor(4, 2)},
		{"Z3xZ4xZ5", mixedTorus([]int{3, 4, 5}), mixedTorusDescriptor([]int{3, 4, 5})},
	} {
		if err := VerifyCayley(c.g, c.d); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.d.Order() != c.g.N() || c.d.Degree() != c.g.MaxDegree() {
			t.Errorf("%s: descriptor shape (%d, %d) vs graph (%d, %d)",
				c.name, c.d.Order(), c.d.Degree(), c.g.N(), c.g.MaxDegree())
		}
	}
}

func TestVerifyMixedRadixCayleyRejectsMalformed(t *testing.T) {
	g := mixedTorus([]int{3, 4, 5})
	good := mixedTorusDescriptor([]int{3, 4, 5})
	bad := []struct {
		name string
		d    MixedRadixCayley
	}{
		{"radix order swapped", mixedTorusDescriptor([]int{5, 4, 3})},
		{"radix below 2", MixedRadixCayley{Radices: []int{1, 60}, Gens: good.Gens}},
		{"wrong order", mixedTorusDescriptor([]int{3, 4, 4})},
		{"no generators", MixedRadixCayley{Radices: []int{3, 4, 5}}},
		{"identity generator", MixedRadixCayley{Radices: []int{3, 4, 5}, Gens: append([][]int{{0, 0, 0}}, good.Gens...)}},
		{"digit out of range", MixedRadixCayley{Radices: []int{3, 4, 5}, Gens: append([][]int{{3, 0, 0}}, good.Gens[1:]...)}},
		{"repeated generator", MixedRadixCayley{Radices: []int{3, 4, 5}, Gens: append([][]int{good.Gens[0]}, good.Gens...)}},
		{"not closed under negation", MixedRadixCayley{Radices: []int{3, 4, 5}, Gens: good.Gens[:3]}},
		{"short generator", MixedRadixCayley{Radices: []int{3, 4, 5}, Gens: [][]int{{1, 0}, {2, 3}}}},
	}
	for _, c := range bad {
		if err := VerifyCayley(g, c.d); err == nil {
			t.Errorf("%s: descriptor accepted, want rejection", c.name)
		}
	}
	// The true descriptor on a different graph of the same order.
	if err := VerifyCayley(ring(60), good); err == nil {
		t.Error("mixed torus descriptor accepted on a ring")
	}
}

func TestVerifyCayleyRejectsWrongDescriptors(t *testing.T) {
	q8 := hyperGraph(8)
	bad := []struct {
		name string
		g    *Graph
		d    CayleyDescriptor
	}{
		{"wrong order", q8, XORCayley{Bits: 9, Masks: hyperMasks(9)}},
		{"missing mask", q8, XORCayley{Bits: 8, Masks: hyperMasks(7)}},
		{"extra mask", q8, XORCayley{Bits: 8, Masks: append(hyperMasks(8), 0xff)}},
		{"repeated mask", q8, XORCayley{Bits: 8, Masks: append(hyperMasks(8)[:7], 1)}},
		{"zero mask", q8, XORCayley{Bits: 8, Masks: append(hyperMasks(8)[:7], 0)}},
		{"additive on cube", q8, AdditiveCayley{K: 4, Dims: 4}},
		{"xor on torus", karyGraph(4, 3), XORCayley{Bits: 6, Masks: hyperMasks(6)}},
		{"folded masks on plain cube", q8, XORCayley{Bits: 8, Masks: append(hyperMasks(8), 0x80|0x40)}},
		{"nil", q8, nil},
	}
	for _, c := range bad {
		if err := VerifyCayley(c.g, c.d); err == nil {
			t.Errorf("%s: descriptor accepted, want rejection", c.name)
		}
	}
}

func TestDetectXORCayley(t *testing.T) {
	if d, ok := DetectXORCayley(hyperGraph(8)); !ok || len(d.Masks) != 8 || d.MultiBit() {
		t.Fatalf("Q8: got %v ok=%v", d, ok)
	}
	if d, ok := DetectXORCayley(foldedGraph(8)); !ok || len(d.Masks) != 9 || !d.MultiBit() {
		t.Fatalf("FQ8: got %v ok=%v", d, ok)
	}
	if d, ok := DetectXORCayley(augmentedGraph(6)); !ok || len(d.Masks) != 11 {
		t.Fatalf("AQ6: got %v ok=%v", d, ok)
	}
	// Detected descriptors must themselves verify.
	for _, g := range []*Graph{hyperGraph(7), foldedGraph(7), augmentedGraph(5)} {
		d, ok := DetectXORCayley(g)
		if !ok {
			t.Fatal("structure not detected")
		}
		if err := VerifyCayley(g, d); err != nil {
			t.Fatalf("detected descriptor fails verification: %v", err)
		}
	}
	// A 4-ary torus really is XOR-Cayley (C_4 is the Cayley graph of
	// Z_2^2 with generators {1, 3}), so detection finds it and the
	// detected descriptor must hold up.
	if d, ok := DetectXORCayley(karyGraph(4, 3)); !ok {
		t.Fatal("Q^4_3 is XOR-Cayley, detection missed it")
	} else if err := VerifyCayley(karyGraph(4, 3), d); err != nil {
		t.Fatalf("Q^4_3 detected descriptor fails verification: %v", err)
	}
	// Odd arities are not: N = 3^3 is not a power of two.
	if _, ok := DetectXORCayley(karyGraph(3, 3)); ok {
		t.Fatal("3-ary torus misdetected as xor-cayley")
	}
	if _, ok := DetectXORCayley(ring(64)); ok {
		t.Fatal("ring misdetected as xor-cayley")
	}
	if _, ok := DetectXORCayley(ring(60)); ok {
		t.Fatal("non-power-of-two order accepted")
	}
}

// edgeList enumerates the undirected edges of g as (u, v) with u < v.
func edgeList(g *Graph) [][2]int32 {
	var edges [][2]int32
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	return edges
}

// mutate returns g with one structural edit chosen by mode: a rewired
// endpoint (degree-visible) or a degree-preserving 2-swap of two
// disjoint edges (only edge membership changes). ok is false when the
// edit happens to reproduce an existing edge (the attempt is skipped).
func mutate(g *Graph, rng *rand.Rand, mode int) (*Graph, bool) {
	edges := edgeList(g)
	b := NewBuilder(g.N())
	switch mode {
	case 0: // rewire one endpoint to a random non-neighbour
		i := rng.Intn(len(edges))
		u := edges[i][0]
		w := int32(rng.Intn(g.N()))
		if w == u || g.HasEdge(u, w) {
			return nil, false
		}
		edges[i][1] = w
	default: // 2-swap {a,b},{c,d} -> {a,d},{c,b}
		i, j := rng.Intn(len(edges)), rng.Intn(len(edges))
		a, bb := edges[i][0], edges[i][1]
		c, d := edges[j][0], edges[j][1]
		if a == c || a == d || bb == c || bb == d ||
			g.HasEdge(a, d) || g.HasEdge(c, bb) {
			return nil, false
		}
		edges[i] = [2]int32{a, d}
		edges[j] = [2]int32{c, bb}
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		b.MustAddEdge(u, v)
	}
	return b.Build(), true
}

// TestVerifyCayleyRejectsMutatedEdges is the deterministic core of the
// fuzz target below: any single-edge corruption of a true Cayley graph
// must fail verification against the true descriptor.
func TestVerifyCayleyRejectsMutatedEdges(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		d    CayleyDescriptor
	}{
		{"Q6", hyperGraph(6), XORCayley{Bits: 6, Masks: hyperMasks(6)}},
		{"FQ6", foldedGraph(6), XORCayley{Bits: 6, Masks: append(hyperMasks(6), 63)}},
		{"kary43", karyGraph(4, 3), AdditiveCayley{K: 4, Dims: 3}},
		{"augkary33", augKaryGraph(3, 3), augKaryDescriptor(3, 3)},
		{"mixedtorus", mixedTorus([]int{3, 4, 5}), mixedTorusDescriptor([]int{3, 4, 5})},
	}
	rng := rand.New(rand.NewSource(42))
	for _, c := range cases {
		mutated := 0
		for trial := 0; mutated < 25 && trial < 500; trial++ {
			mg, ok := mutate(c.g, rng, trial%2)
			if !ok {
				continue
			}
			mutated++
			if err := VerifyCayley(mg, c.d); err == nil {
				t.Fatalf("%s: mutated graph passed verification (trial %d)", c.name, trial)
			}
		}
		if mutated < 25 {
			t.Fatalf("%s: only %d usable mutations generated", c.name, mutated)
		}
	}
}

// FuzzVerifyCayley drives the same property from fuzzed seeds: whatever
// single mutation is applied to a genuine XOR-Cayley graph, VerifyCayley
// with the true descriptor must reject the result.
func FuzzVerifyCayley(f *testing.F) {
	f.Add(int64(1), 0)
	f.Add(int64(2), 1)
	f.Add(int64(99), 0)
	g := foldedGraph(6)
	d := XORCayley{Bits: 6, Masks: append(hyperMasks(6), 63)}
	f.Fuzz(func(t *testing.T, seed int64, mode int) {
		rng := rand.New(rand.NewSource(seed))
		mg, ok := mutate(g, rng, ((mode%2)+2)%2)
		if !ok {
			t.Skip("mutation collided with an existing edge")
		}
		if err := VerifyCayley(mg, d); err == nil {
			t.Fatal("mutated graph passed verification")
		}
	})
}
