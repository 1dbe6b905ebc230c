package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"comparisondiag/internal/bitset"
)

// implicitTestDescriptors is the descriptor panel the implicit-adjacency
// unit tests run over: one per compiled form (xor masks, additive
// compiled to mixed-radix, native mixed-radix with a run generator).
func implicitTestDescriptors() map[string]CayleyDescriptor {
	return map[string]CayleyDescriptor{
		"q6-xor": XORCayley{Bits: 6, Masks: []int32{1, 2, 4, 8, 16, 32}},
		"fq5-xor": XORCayley{Bits: 5,
			Masks: []int32{1, 2, 4, 8, 16, 31}},
		"kary5x3-additive": AdditiveCayley{K: 5, Dims: 3},
		"akary3x4-mixed": MixedRadixCayley{
			Radices: []int{3, 3, 3, 3},
			Gens: [][]int{
				{1, 0, 0, 0}, {2, 0, 0, 0}, {0, 1, 0, 0}, {0, 2, 0, 0},
				{0, 0, 1, 0}, {0, 0, 2, 0}, {0, 0, 0, 1}, {0, 0, 0, 2},
				{1, 1, 1, 1}, {2, 2, 2, 2},
			},
		},
	}
}

// TestCayleyAdjacencyMatchesCSR pins the tentpole equivalence at the
// graph layer: materialising the implicit adjacency into a CSR and
// re-reading it must reproduce AppendNeighbors exactly — same nodes,
// same strictly ascending order, same degrees — and the CSR must
// satisfy VerifyCayley against the original descriptor (the independent
// edge-scan checker the engine trusts).
func TestCayleyAdjacencyMatchesCSR(t *testing.T) {
	for name, desc := range implicitTestDescriptors() {
		t.Run(name, func(t *testing.T) {
			ca, err := NewCayleyAdjacency(desc)
			if err != nil {
				t.Fatal(err)
			}
			if ca.Descriptor() != nil && ca.Descriptor().String() != desc.String() {
				t.Fatalf("descriptor round-trip: %s != %s", ca.Descriptor().String(), desc.String())
			}
			var buf []int32
			g := FromAdjacency(ca.N(), func(dst []int32, u int32) []int32 {
				buf = ca.AppendNeighbors(u, buf)
				return append(dst, buf...)
			})
			if err := VerifyCayley(g, desc); err != nil {
				t.Fatalf("generated adjacency fails the descriptor's own edge scan: %v", err)
			}
			if g.MaxDegree() != ca.MaxDegree() || g.MinDegree() != ca.MinDegree() {
				t.Fatalf("degree bounds: csr [%d,%d], implicit [%d,%d]",
					g.MinDegree(), g.MaxDegree(), ca.MinDegree(), ca.MaxDegree())
			}
			for u := int32(0); int(u) < g.N(); u++ {
				want := g.Neighbors(u)
				buf = ca.AppendNeighbors(u, buf)
				if !slices.Equal(buf, want) {
					t.Fatalf("node %d: implicit %v, csr %v", u, buf, want)
				}
				if !slices.IsSorted(buf) {
					t.Fatalf("node %d: neighbours not ascending: %v", u, buf)
				}
				if ca.Degree(u) != len(want) {
					t.Fatalf("node %d: degree %d, csr %d", u, ca.Degree(u), len(want))
				}
			}
		})
	}
}

// TestBasisWalkMatchesCSR pins the single-bit generator path: for Q2–Q12,
// with the masks declared in a shuffled order, AppendNeighbors must list
// exactly the neighbours of an independently built CSR, in the same
// ascending order, without allocating. A basis that leaves bits out
// (a disjoint union of subcubes) walks the same way.
func TestBasisWalkMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(t *testing.T, bitsN int, masks []int32) {
		ca, err := NewCayleyAdjacency(XORCayley{Bits: bitsN, Masks: masks})
		if err != nil {
			t.Fatal(err)
		}
		g := FromAdjacency(1<<bitsN, func(dst []int32, u int32) []int32 {
			for _, m := range masks {
				dst = append(dst, u^m)
			}
			return dst
		})
		buf := make([]int32, 0, len(masks))
		for u := int32(0); int(u) < g.N(); u++ {
			buf = ca.AppendNeighbors(u, buf)
			if !slices.Equal(buf, g.Neighbors(u)) {
				t.Fatalf("node %d: walk %v, csr %v", u, buf, g.Neighbors(u))
			}
		}
		u := int32(0)
		if allocs := testing.AllocsPerRun(100, func() {
			buf = ca.AppendNeighbors(u, buf)
			u = (u + 7) & int32(g.N()-1)
		}); allocs != 0 {
			t.Fatalf("AppendNeighbors allocates %.1f times per call", allocs)
		}
	}
	for bitsN := 2; bitsN <= 12; bitsN++ {
		masks := make([]int32, bitsN)
		for i := range masks {
			masks[i] = 1 << uint(i)
		}
		rng.Shuffle(len(masks), func(i, j int) { masks[i], masks[j] = masks[j], masks[i] })
		t.Run(fmt.Sprintf("Q%d", bitsN), func(t *testing.T) { check(t, bitsN, masks) })
	}
	t.Run("partial-basis", func(t *testing.T) { check(t, 7, []int32{32, 1, 4, 64}) })
	if XORBasis(&Graph{}) != 0 {
		t.Fatal("XORBasis of a CSR graph must be 0")
	}
	fq, err := NewCayleyAdjacency(XORCayley{Bits: 5, Masks: []int32{1, 2, 4, 8, 16, 31}})
	if err != nil {
		t.Fatal(err)
	}
	if XORBasis(fq) != 0 {
		t.Fatal("XORBasis of a multi-bit descriptor must be 0")
	}
}

// TestCayleyAdjacencyShapeValidation pins the constructor's refusals:
// each malformed descriptor must be rejected without a graph to scan.
func TestCayleyAdjacencyShapeValidation(t *testing.T) {
	bad := map[string]CayleyDescriptor{
		"nil":            nil,
		"xor-no-masks":   XORCayley{Bits: 4},
		"xor-dup-mask":   XORCayley{Bits: 4, Masks: []int32{1, 2, 1}},
		"xor-oob-mask":   XORCayley{Bits: 4, Masks: []int32{1, 16}},
		"xor-zero-mask":  XORCayley{Bits: 4, Masks: []int32{0, 1}},
		"xor-wide":       XORCayley{Bits: 31, Masks: []int32{1}},
		"additive-k2":    AdditiveCayley{K: 2, Dims: 3},
		"mixed-identity": MixedRadixCayley{Radices: []int{3, 3}, Gens: [][]int{{0, 0}}},
		"mixed-oob":      MixedRadixCayley{Radices: []int{3, 3}, Gens: [][]int{{3, 0}, {0, 1}, {0, 2}}},
		"mixed-dup":      MixedRadixCayley{Radices: []int{3, 3}, Gens: [][]int{{1, 0}, {1, 0}, {2, 0}}},
		"mixed-unclosed": MixedRadixCayley{Radices: []int{3, 3}, Gens: [][]int{{1, 0}}},
		"mixed-ragged":   MixedRadixCayley{Radices: []int{3, 3}, Gens: [][]int{{1}, {2}}},
	}
	for name, desc := range bad {
		if _, err := NewCayleyAdjacency(desc); err == nil {
			t.Errorf("%s: malformed descriptor accepted", name)
		}
	}
}

// TestNeighborsOfSetOnInto pins the generic boundary computation against
// the CSR word-level implementation: for random sets (sparse and dense)
// the implicit path must produce the identical boundary bitset.
func TestNeighborsOfSetOnInto(t *testing.T) {
	for name, desc := range implicitTestDescriptors() {
		t.Run(name, func(t *testing.T) {
			ca, err := NewCayleyAdjacency(desc)
			if err != nil {
				t.Fatal(err)
			}
			var buf []int32
			g := FromAdjacency(ca.N(), func(dst []int32, u int32) []int32 {
				buf = ca.AppendNeighbors(u, buf)
				return append(dst, buf...)
			})
			n := ca.N()
			rng := rand.New(rand.NewSource(42))
			set := bitset.New(n)
			want := bitset.New(n)
			got := bitset.New(n)
			for _, fill := range []int{0, 1, n / 16, n / 2, n - 1, n} {
				set.Clear()
				for set.Count() < fill {
					set.Add(rng.Intn(n))
				}
				g.NeighborsOfSetInto(set, want)
				buf = NeighborsOfSetOnInto(ca, set, got, buf)
				if !got.Equal(want) {
					t.Fatalf("fill %d: boundary differs (implicit %d nodes, csr %d)",
						fill, got.Count(), want.Count())
				}
				// The CSR fast path must route to the same implementation.
				buf = NeighborsOfSetOnInto(g, set, got, buf)
				if !got.Equal(want) {
					t.Fatalf("fill %d: CSR-routed boundary differs", fill)
				}
			}
		})
	}
}

// TestFootprintBytes pins the memory model the scale docs quote: the
// implicit footprint is independent of node count and orders of
// magnitude below the CSR estimate for any non-trivial instance.
func TestFootprintBytes(t *testing.T) {
	small, err := NewCayleyAdjacency(XORCayley{Bits: 6, Masks: []int32{1, 2, 4, 8, 16, 32}})
	if err != nil {
		t.Fatal(err)
	}
	bigMasks := make([]int32, 20)
	for i := range bigMasks {
		bigMasks[i] = 1 << uint(i)
	}
	big, err := NewCayleyAdjacency(XORCayley{Bits: 20, Masks: bigMasks})
	if err != nil {
		t.Fatal(err)
	}
	if f := big.FootprintBytes(); f > 1<<12 {
		t.Fatalf("Q20 implicit footprint %d bytes; want descriptor-sized", f)
	}
	if small.FootprintBytes() > big.FootprintBytes() {
		t.Fatalf("footprint shrank with more generators")
	}
	csr := CSRFootprintBytes(big.N(), big.N()*big.MaxDegree()/2)
	if csr < 50<<20 {
		t.Fatalf("Q20 CSR estimate %d bytes; expected ≥ 50 MiB", csr)
	}
	if csr/big.FootprintBytes() < 10000 {
		t.Fatalf("CSR/implicit ratio %d at Q20; expected ≥ 10⁴", csr/big.FootprintBytes())
	}
}
