package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Algebraic adjacency descriptors. A regular interconnection network is
// usually a Cayley graph: the neighbourhood of every node is one fixed
// generator set acting on the node's id. When that structure is known,
// diagnosis engines can replace per-edge adjacency walks with whole-
// bitset permutations (see internal/core's final-pass kernels), so the
// topology layer *declares* the structure it was built from and this
// package *verifies* a declaration against the CSR adjacency before
// anything trusts it — a descriptor is data, not proof.
//
// Three families of descriptors cover the paper's regular networks:
//
//   - XORCayley: node ids are bit strings and N(u) = {u ⊕ m} over a set
//     of masks. Hypercubes (single-bit masks), folded and enhanced
//     hypercubes (one multi-bit complement mask) and augmented cubes
//     (multi-bit run masks) are all of this shape.
//   - AdditiveCayley: node ids are n-digit base-k strings and
//     N(u) = u ± 1 (mod k) in each digit — the k-ary n-cube (torus).
//   - MixedRadixCayley: the general additive case — node ids are digit
//     strings with per-dimension arities and the generators are
//     arbitrary digit vectors added digit-wise (each digit wrapping
//     modulo its own arity). Augmented k-ary n-cubes (torus edges plus
//     ±(1,…,1,0,…,0) run generators) are of this shape.
//
// Crossed, twisted and shuffle cubes are intentionally *not* describable
// here: their edge rules read other bits of the endpoint (pair-relations,
// a rewired face, suffix-selected tables), so no single generator set
// reproduces their adjacency and VerifyCayley would reject any claim.
type CayleyDescriptor interface {
	// Order returns the number of nodes the descriptor describes; a
	// descriptor only applies to graphs of exactly this order.
	Order() int
	// Degree returns the generator count — the degree of every node.
	Degree() int
	// String renders the structure for logs and CLI output.
	String() string
}

// XORCayley declares N(u) = {u ⊕ m : m ∈ Masks} over node ids in
// [0, 2^Bits). Masks must be distinct, non-zero and below 2^Bits; they
// may have several bits set (folded/enhanced/augmented cubes).
type XORCayley struct {
	Bits  int
	Masks []int32
}

// Order implements CayleyDescriptor.
func (x XORCayley) Order() int { return 1 << uint(x.Bits) }

// Degree implements CayleyDescriptor.
func (x XORCayley) Degree() int { return len(x.Masks) }

// MultiBit reports whether any generator flips more than one bit —
// the case the plain hypercube kernel cannot serve.
func (x XORCayley) MultiBit() bool {
	for _, m := range x.Masks {
		if m&(m-1) != 0 {
			return true
		}
	}
	return false
}

// String implements CayleyDescriptor.
func (x XORCayley) String() string {
	kind := "single-bit"
	if x.MultiBit() {
		kind = "multi-bit"
	}
	return fmt.Sprintf("xor-cayley over GF(2)^%d, %d generators (%s)", x.Bits, len(x.Masks), kind)
}

// AdditiveCayley declares the k-ary n-cube: node ids are Dims-digit
// base-K strings and every node is adjacent to u ± 1 (mod K) in each
// digit. K ≥ 3 keeps the two directions distinct.
type AdditiveCayley struct {
	K, Dims int
}

// Order implements CayleyDescriptor.
func (a AdditiveCayley) Order() int {
	n := 1
	for i := 0; i < a.Dims; i++ {
		n *= a.K
	}
	return n
}

// Degree implements CayleyDescriptor.
func (a AdditiveCayley) Degree() int { return 2 * a.Dims }

// String implements CayleyDescriptor.
func (a AdditiveCayley) String() string {
	return fmt.Sprintf("additive cayley over Z_%d^%d (±1 per digit)", a.K, a.Dims)
}

// MixedRadixCayley declares a Cayley graph of the abelian group
// Z_{K_0} × … × Z_{K_{n-1}}: node ids are mixed-radix digit strings
// (digit d has arity Radices[d]; dimension 0 is the least significant)
// and N(u) = {u + g : g ∈ Gens} with the addition performed digit-wise,
// each digit wrapping modulo its own arity. Gens must be distinct,
// non-zero, digit-wise in range, and closed under negation (adjacency
// is symmetric: u + g ~ u requires -g ∈ Gens).
//
// AdditiveCayley is the special case of uniform arity with the ±1 unit
// vectors as generators; MixedRadixCayley additionally expresses the
// augmented k-ary n-cube's run generators ±(1,…,1,0,…,0) — whose
// id-space delta is node-dependent because every digit wraps
// independently — and per-dimension arities.
type MixedRadixCayley struct {
	Radices []int   // per-dimension arities, each ≥ 2, low dimension first
	Gens    [][]int // generator digit vectors, Gens[i][d] ∈ [0, Radices[d])
}

// Order implements CayleyDescriptor.
func (m MixedRadixCayley) Order() int {
	n := 1
	for _, k := range m.Radices {
		n *= k
	}
	return n
}

// Degree implements CayleyDescriptor.
func (m MixedRadixCayley) Degree() int { return len(m.Gens) }

// String implements CayleyDescriptor.
func (m MixedRadixCayley) String() string {
	var sb strings.Builder
	sb.WriteString("mixed-radix cayley over ")
	for i, k := range m.Radices {
		if i > 0 {
			sb.WriteString("×")
		}
		fmt.Fprintf(&sb, "Z_%d", k)
	}
	fmt.Fprintf(&sb, ", %d generators", len(m.Gens))
	return sb.String()
}

// FromXORCayley returns the graph d declares, N(u) = {u ⊕ m : m ∈
// d.Masks}, backed by the descriptor: it holds the generator set and no
// offset or target arrays. N, M, Degree, MaxDegree, MinDegree,
// IsRegular, HasEdge, AppendNeighbors, Connected, Remove and Restore
// answer from the masks; the CSR is written only when a caller first
// reads it (Neighbors, Adjacency, or an analysis that walks the table).
//
// That write generates each node's block ascending into its slot of an
// exact-size target array and checks it while it is still in cache:
// degree len(d.Masks), strictly ascending, and every difference u⊕v a
// mask. With the masks distinct, non-zero and in range (the shape check
// NewCayleyAdjacency makes), those facts prove N(u) = u⊕M exactly, which
// is symmetric (v = u⊕m gives u = v⊕m), so no merge or transpose pass
// runs. The result is the CSR FromAdjacency builds from the same
// listing, its target array at exact capacity, written in one serial
// pass.
//
// The graph records a copy of d, and VerifyCayley against the same bit
// width and mask set returns nil without a scan. Removal survivors carry
// no descriptor and are scanned as any other graph; a full Restore gives
// back this graph itself.
//
// The int32 bounds (CheckInt32Bounds) are checked first, before the
// shape and before anything proportional to the order is allocated;
// any failure is returned as an error.
func FromXORCayley(d XORCayley) (*Graph, error) {
	n, deg := xorOrder(d.Bits), len(d.Masks)
	if err := CheckInt32Bounds(n, deg); err != nil {
		return nil, err
	}
	ca, err := NewCayleyAdjacency(d)
	if err != nil {
		return nil, err
	}
	masks := slices.Clone(d.Masks)
	slices.Sort(masks)
	return &Graph{n: n, m: n * deg / 2, xor: &XORCayley{Bits: d.Bits, Masks: masks}, gen: ca}, nil
}

// xorOrder is 2^bits, saturated at math.MaxInt, which the int32 bounds
// refuse; a negative width gives 0, which the shape check refuses.
func xorOrder(b int) int {
	switch {
	case b >= bits.UintSize-1:
		return math.MaxInt
	case b >= 0:
		return 1 << uint(b)
	}
	return 0
}

// xorConnected reports whether the XOR-Cayley graph on width-bit ids
// over masks is connected: the component of 0 is the span of the masks
// over GF(2), so the graph is connected exactly when they have rank
// width.
func xorConnected(width int, masks []int32) bool {
	var basis [32]uint32 // basis[h]: the reduced mask whose top bit is h
	rank := 0
	for _, m := range masks {
		x := uint32(m)
		for x != 0 {
			h := bits.Len32(x) - 1
			if basis[h] == 0 {
				basis[h] = x
				rank++
				break
			}
			x ^= basis[h]
		}
	}
	return rank == width
}

// buildXORCSR writes the CSR of ca and checks each block as it is
// stored: degree, strict ascent and every difference u⊕v a mask, read
// back from the target array itself, so the check proves what the CSR
// holds. It stops at the first failing node.
func buildXORCSR(ca *CayleyAdjacency, isMask []bool) ([]int32, []int32, error) {
	n, deg, basis := ca.n, int32(ca.deg), ca.basis
	offsets := make([]int32, n+1)
	targets := make([]int32, n*ca.deg)
	for u := int32(0); int(u) < n; u++ {
		start := u * deg
		block := targets[start : start+deg : start+deg]
		got := 0
		if basis != 0 {
			// Single-bit masks (Q_n): the walk is ascending, written
			// by index.
			for w := BasisWalk(u, basis); w != 0; w &= w - 1 {
				block[got] = BasisNeighbor(u, w)
				got++
			}
		} else {
			got = len(ca.AppendNeighbors(u, block[:0]))
		}
		if got != len(block) {
			return nil, nil, fmt.Errorf("graph: xor-cayley generator gave node %d %d neighbours, want %d", u, got, deg)
		}
		prev := int32(-1)
		for _, v := range block {
			x := uint32(u ^ v)
			if v <= prev || x >= uint32(len(isMask)) || !isMask[x] {
				return nil, nil, fmt.Errorf("graph: xor-cayley block %v of node %d is not its mask set applied ascending", block, u)
			}
			prev = v
		}
		offsets[u+1] = start + deg
	}
	return offsets, targets, nil
}

// VerifyCayley checks a descriptor against the graph's CSR adjacency:
// nil means every node's neighbourhood is exactly the generator set
// applied to its id. The check is O(m) and runs once at engine bind
// time, so declared structure — even from an untrusted or buggy
// source — can never route a graph through the wrong kernel: a single
// deviating edge fails the pass. The one exception is a graph
// FromXORCayley built, checked block by block as it was written: an
// XORCayley with its bit width and mask set, in any order, is accepted
// without a scan; any other descriptor is scanned.
func VerifyCayley(g *Graph, d CayleyDescriptor) error {
	switch d := d.(type) {
	case XORCayley:
		return verifyXORCayley(g, d)
	case AdditiveCayley:
		return verifyAdditiveCayley(g, d)
	case MixedRadixCayley:
		return verifyMixedRadixCayley(g, d)
	case nil:
		return fmt.Errorf("graph: nil Cayley descriptor")
	default:
		return fmt.Errorf("graph: unknown Cayley descriptor %T", d)
	}
}

func verifyXORCayley(g *Graph, d XORCayley) error {
	n := g.N()
	if d.Bits <= 0 || d.Bits >= 31 || n != 1<<uint(d.Bits) {
		return fmt.Errorf("graph: xor-cayley order 2^%d does not match %d nodes", d.Bits, n)
	}
	if len(d.Masks) == 0 {
		return fmt.Errorf("graph: xor-cayley descriptor has no generators")
	}
	masks := slices.Clone(d.Masks)
	slices.Sort(masks)
	if g.xor != nil && g.xor.Bits == d.Bits && slices.Equal(g.xor.Masks, masks) {
		return nil
	}
	for i, m := range masks {
		if m <= 0 || int(m) >= n {
			return fmt.Errorf("graph: xor-cayley mask %#x out of range (0, %d)", m, n)
		}
		if i > 0 && masks[i-1] == m {
			return fmt.Errorf("graph: xor-cayley mask %#x repeated", m)
		}
	}
	// Distinct masks produce distinct u^m, so per node it suffices that
	// the degree matches and every edge difference is a generator.
	deg := len(masks)
	isMask := maskTable(n, masks)
	for u := int32(0); int(u) < n; u++ {
		adj := g.Neighbors(u)
		if len(adj) != deg {
			return fmt.Errorf("graph: node %d has degree %d, descriptor says %d", u, len(adj), deg)
		}
		for _, v := range adj {
			if !isMask[u^v] {
				return fmt.Errorf("graph: edge %d-%d (difference %#x) not generated by the mask set", u, v, u^v)
			}
		}
	}
	return nil
}

// maskTable returns the n-entry membership table of an XOR generator
// set: isMask[x] reports whether x is a mask. Node ids u, v < n = 2^bits
// keep every edge difference u^v inside the table, so each arc costs one
// load instead of a search.
func maskTable(n int, masks []int32) []bool {
	isMask := make([]bool, n)
	for _, m := range masks {
		isMask[m] = true
	}
	return isMask
}

func verifyAdditiveCayley(g *Graph, d AdditiveCayley) error {
	if d.K < 3 || d.Dims < 1 {
		return fmt.Errorf("graph: additive descriptor needs k ≥ 3, dims ≥ 1 (got k=%d, dims=%d)", d.K, d.Dims)
	}
	n := g.N()
	order := 1
	for i := 0; i < d.Dims; i++ {
		if order > n {
			break
		}
		order *= d.K
	}
	if order != n {
		return fmt.Errorf("graph: additive order %d^%d does not match %d nodes", d.K, d.Dims, n)
	}
	k := int32(d.K)
	want := make([]int32, 0, 2*d.Dims)
	for u := int32(0); int(u) < n; u++ {
		want = want[:0]
		stride := int32(1)
		x := u
		for dim := 0; dim < d.Dims; dim++ {
			digit := x % k
			up, down := u+stride, u-stride
			if digit == k-1 {
				up = u - (k-1)*stride
			}
			if digit == 0 {
				down = u + (k-1)*stride
			}
			want = append(want, up, down)
			x /= k
			stride *= k
		}
		slices.Sort(want)
		if !slices.Equal(want, g.Neighbors(u)) {
			return fmt.Errorf("graph: node %d adjacency %v does not match the ±1-per-digit generators %v", u, g.Neighbors(u), want)
		}
	}
	return nil
}

func verifyMixedRadixCayley(g *Graph, d MixedRadixCayley) error {
	dims := len(d.Radices)
	if dims < 1 {
		return fmt.Errorf("graph: mixed-radix descriptor has no dimensions")
	}
	n := g.N()
	order := 1
	for i, k := range d.Radices {
		if k < 2 {
			return fmt.Errorf("graph: mixed-radix arity %d in dimension %d (need ≥ 2)", k, i)
		}
		if order > n {
			break
		}
		order *= k
	}
	if order != n {
		return fmt.Errorf("graph: mixed-radix order %d does not match %d nodes", order, n)
	}
	if len(d.Gens) == 0 {
		return fmt.Errorf("graph: mixed-radix descriptor has no generators")
	}
	stride := make([]int32, dims)
	s := int32(1)
	for i, k := range d.Radices {
		stride[i] = s
		s *= int32(k)
	}
	// Shape checks: in-range digits, non-zero vectors, distinctness and
	// closure under negation (so the generated graph is undirected).
	// Distinct generators of an abelian group move every node to
	// distinct neighbours, so the per-node check below only needs the
	// degree and edge-membership tests.
	seen := make(map[string]bool, len(d.Gens))
	neg := make(map[string]bool, len(d.Gens))
	keyOf := func(gen []int) string {
		b := make([]byte, 0, len(gen)*2)
		for _, q := range gen {
			b = append(b, byte(q), byte(q>>8))
		}
		return string(b)
	}
	for gi, gen := range d.Gens {
		if len(gen) != dims {
			return fmt.Errorf("graph: generator %d has %d digits, descriptor has %d dimensions", gi, len(gen), dims)
		}
		zero := true
		negGen := make([]int, dims)
		for di, q := range gen {
			if q < 0 || q >= d.Radices[di] {
				return fmt.Errorf("graph: generator %d digit %d = %d out of range [0, %d)", gi, di, q, d.Radices[di])
			}
			if q != 0 {
				zero = false
				negGen[di] = d.Radices[di] - q
			}
		}
		if zero {
			return fmt.Errorf("graph: generator %d is the identity", gi)
		}
		k := keyOf(gen)
		if seen[k] {
			return fmt.Errorf("graph: generator %d repeated", gi)
		}
		seen[k] = true
		neg[keyOf(negGen)] = true
	}
	for k := range neg {
		if !seen[k] {
			return fmt.Errorf("graph: generator set not closed under negation (adjacency could not be symmetric)")
		}
	}
	digits := make([]int, dims)
	want := make([]int32, 0, len(d.Gens))
	for u := int32(0); int(u) < n; u++ {
		x := u
		for di, k := range d.Radices {
			digits[di] = int(x % int32(k))
			x /= int32(k)
		}
		want = want[:0]
		for _, gen := range d.Gens {
			v := u
			for di, q := range gen {
				if q == 0 {
					continue
				}
				nd := digits[di] + q
				if nd >= d.Radices[di] {
					nd -= d.Radices[di]
				}
				v += int32(nd-digits[di]) * stride[di]
			}
			want = append(want, v)
		}
		slices.Sort(want)
		if !slices.Equal(want, g.Neighbors(u)) {
			return fmt.Errorf("graph: node %d adjacency %v does not match the declared generators %v", u, g.Neighbors(u), want)
		}
	}
	return nil
}

// DetectXORCayley probes the graph for XOR-Cayley structure with no
// declaration to go on: it reads the candidate generator set off node
// 0's neighbourhood and verifies it against every edge, O(m). This is
// the fallback for raw graphs whose topology layer declares nothing;
// it recognises multi-bit generator sets (folded/enhanced/augmented
// cubes), not just plain hypercubes. Additive structure is not
// detectable this way (the generator deltas wrap per digit), so tori
// must be declared.
func DetectXORCayley(g *Graph) (XORCayley, bool) {
	n := g.N()
	if n < 4 || n&(n-1) != 0 {
		return XORCayley{}, false
	}
	masks := g.Neighbors(0) // = {0 ^ m}: the mask set, sorted, distinct
	if len(masks) == 0 || len(masks) > 64 {
		return XORCayley{}, false
	}
	deg := len(masks)
	isMask := maskTable(n, masks)
	for u := int32(1); int(u) < n; u++ {
		adj := g.Neighbors(u)
		if len(adj) != deg {
			return XORCayley{}, false
		}
		for _, v := range adj {
			if !isMask[u^v] {
				return XORCayley{}, false
			}
		}
	}
	return XORCayley{Bits: bits.TrailingZeros(uint(n)), Masks: slices.Clone(masks)}, true
}
