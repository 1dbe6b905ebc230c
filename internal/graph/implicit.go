package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"comparisondiag/internal/bitset"
)

// Adjacencer is the neighbour-enumeration contract the diagnosis stack
// runs on. Two implementations exist: *Graph (CSR-backed — a table) and
// CayleyAdjacency (descriptor-backed — a formula). Everything above this
// interface (part certification, Set_Builder tree growth, boundary
// computation) sees identical neighbour sequences from both, so engines
// over million-node structured families can skip materialising the CSR
// entirely: at Q20 the hypercube's target array alone is ~80 MB that an
// implicit engine never allocates.
//
// Contract: AppendNeighbors(u, buf) returns u's neighbours in strictly
// ascending order. It may return buf with the neighbours appended after
// buf[:0] reslicing, or an internal read-only view (the CSR
// implementation does the latter); callers must treat the result as
// invalid after the next call with the same buf and must not modify it.
type Adjacencer interface {
	// N returns the number of nodes.
	N() int
	// Degree returns the degree of u.
	Degree(u int32) int
	// MaxDegree returns the maximum node degree.
	MaxDegree() int
	// MinDegree returns the minimum node degree.
	MinDegree() int
	// AppendNeighbors returns u's neighbours in ascending order, using
	// buf as backing storage when the implementation generates them.
	AppendNeighbors(u int32, buf []int32) []int32
}

// AppendNeighbors implements Adjacencer for the CSR graph: the returned
// slice is the usual read-only view into the target array (buf is
// ignored — no copy is ever made on the table-backed path).
func (g *Graph) AppendNeighbors(u int32, buf []int32) []int32 {
	return g.targets[g.offsets[u]:g.offsets[u+1]]
}

// CSR asserts an Adjacencer down to its CSR-backed implementation,
// returning nil for implicit (generator-backed) adjacency. Hot paths
// use this to keep the flat offset/target walk when a table exists and
// fall back to AppendNeighbors generation when it does not.
func CSR(a Adjacencer) *Graph {
	g, _ := a.(*Graph)
	return g
}

// XORBasis returns the generator basis of a single-bit XOR Cayley
// adjacency (the hypercube family: the union of its generators), or 0
// for every other Adjacencer. Hot paths use it as they use CSR: a
// non-zero basis lets them walk neighbourhoods with the inlined
// BasisWalk instead of an AppendNeighbors call per node.
func XORBasis(a Adjacencer) uint32 {
	if ca, ok := a.(*CayleyAdjacency); ok {
		return ca.basis
	}
	return 0
}

// CayleyAdjacency is the implicit Adjacencer: neighbourhoods are
// generated on demand from a shape-validated CayleyDescriptor and no
// per-edge storage exists. The structure is immutable after
// construction and safe for concurrent AppendNeighbors calls (each call
// works entirely in the caller's buffer).
type CayleyAdjacency struct {
	desc CayleyDescriptor
	n    int
	deg  int

	// xor: basis is the masks' union when every mask flips a single
	// bit (the hypercube family), 0 otherwise. A multi-bit set is
	// grouped by highest set bit: tops is the union of those bits, and
	// the masks topped by bit h are masks[topAt[h]:topAt[h+1]].
	masks []int32
	basis uint32
	tops  uint32
	topAt []int32
	// additive / mixed-radix (additive is compiled to the mixed-radix
	// form: uniform radices, ±1 unit-vector generators)
	radices []int32
	strides []int32
	gens    [][]int32 // generator digit vectors, ascending dimension
}

// NewCayleyAdjacency builds an implicit adjacency from a descriptor.
// Only the descriptor's shape is validated (arities, mask ranges,
// distinctness, negation closure) — there is no graph to scan edges
// against; the shape rules are exactly the ones VerifyCayley enforces
// before its per-node scan, and they suffice for the generated
// adjacency to be a simple undirected regular graph.
func NewCayleyAdjacency(desc CayleyDescriptor) (*CayleyAdjacency, error) {
	ca := &CayleyAdjacency{desc: desc}
	switch d := desc.(type) {
	case XORCayley:
		if err := checkXORShape(d); err != nil {
			return nil, err
		}
		ca.n = d.Order()
		ca.deg = len(d.Masks)
		ca.masks = append([]int32(nil), d.Masks...)
		if !d.MultiBit() {
			for _, m := range d.Masks {
				ca.basis |= uint32(m)
			}
		} else {
			ca.groupByTopBit()
		}
	case AdditiveCayley:
		if d.K < 3 || d.Dims < 1 {
			return nil, fmt.Errorf("graph: additive descriptor needs k ≥ 3, dims ≥ 1 (got k=%d, dims=%d)", d.K, d.Dims)
		}
		radices := make([]int, d.Dims)
		gens := make([][]int, 0, 2*d.Dims)
		for dim := 0; dim < d.Dims; dim++ {
			radices[dim] = d.K
			up := make([]int, d.Dims)
			down := make([]int, d.Dims)
			up[dim], down[dim] = 1, d.K-1
			gens = append(gens, up, down)
		}
		compiled, err := NewCayleyAdjacency(MixedRadixCayley{Radices: radices, Gens: gens})
		if err != nil {
			return nil, err
		}
		compiled.desc = d // report the declared form, not the compilation
		return compiled, nil
	case MixedRadixCayley:
		if err := checkMixedRadixShape(d); err != nil {
			return nil, err
		}
		ca.n = d.Order()
		ca.deg = len(d.Gens)
		dims := len(d.Radices)
		ca.radices = make([]int32, dims)
		ca.strides = make([]int32, dims)
		s := int32(1)
		for i, k := range d.Radices {
			ca.radices[i] = int32(k)
			ca.strides[i] = s
			s *= int32(k)
		}
		ca.gens = make([][]int32, len(d.Gens))
		for gi, gen := range d.Gens {
			v := make([]int32, dims)
			for di, q := range gen {
				v[di] = int32(q)
			}
			ca.gens[gi] = v
		}
	case nil:
		return nil, fmt.Errorf("graph: nil Cayley descriptor")
	default:
		return nil, fmt.Errorf("graph: unknown Cayley descriptor %T", desc)
	}
	return ca, nil
}

// groupByTopBit orders a multi-bit mask set by highest set bit and
// records the groups (tops, topAt) AppendNeighbors walks.
func (ca *CayleyAdjacency) groupByTopBit() {
	slices.SortStableFunc(ca.masks, func(a, b int32) int { return bits.Len32(uint32(a)) - bits.Len32(uint32(b)) })
	ca.topAt = make([]int32, 32)
	for _, m := range ca.masks {
		top := bits.Len32(uint32(m)) - 1
		ca.tops |= 1 << top
		ca.topAt[top+1]++ // a count for now; summed below
	}
	for h := 1; h < len(ca.topAt); h++ {
		ca.topAt[h] += ca.topAt[h-1]
	}
}

// checkXORShape validates an XORCayley descriptor without a graph: the
// order must be representable, masks distinct, non-zero and in range.
func checkXORShape(d XORCayley) error {
	if d.Bits <= 0 || d.Bits >= 31 {
		return fmt.Errorf("graph: xor-cayley bit width %d outside (0, 31)", d.Bits)
	}
	n := 1 << uint(d.Bits)
	if len(d.Masks) == 0 {
		return fmt.Errorf("graph: xor-cayley descriptor has no generators")
	}
	seen := make(map[int32]bool, len(d.Masks))
	for _, m := range d.Masks {
		if m <= 0 || int(m) >= n {
			return fmt.Errorf("graph: xor-cayley mask %#x out of range (0, %d)", m, n)
		}
		if seen[m] {
			return fmt.Errorf("graph: xor-cayley mask %#x repeated", m)
		}
		seen[m] = true
	}
	return nil
}

// checkMixedRadixShape validates a MixedRadixCayley descriptor without a
// graph: arities ≥ 2, generators digit-wise in range, non-zero,
// distinct, and closed under negation (symmetric adjacency).
func checkMixedRadixShape(d MixedRadixCayley) error {
	dims := len(d.Radices)
	if dims < 1 {
		return fmt.Errorf("graph: mixed-radix descriptor has no dimensions")
	}
	order := 1
	for i, k := range d.Radices {
		if k < 2 {
			return fmt.Errorf("graph: mixed-radix arity %d in dimension %d (need ≥ 2)", k, i)
		}
		if order > (1<<31-1)/k {
			return fmt.Errorf("graph: mixed-radix order overflows int32")
		}
		order *= k
	}
	if len(d.Gens) == 0 {
		return fmt.Errorf("graph: mixed-radix descriptor has no generators")
	}
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
	return nil
}

// Descriptor returns the descriptor the adjacency was built from.
func (ca *CayleyAdjacency) Descriptor() CayleyDescriptor { return ca.desc }

// N implements Adjacencer.
func (ca *CayleyAdjacency) N() int { return ca.n }

// Degree implements Adjacencer: Cayley graphs are regular.
func (ca *CayleyAdjacency) Degree(u int32) int { return ca.deg }

// MaxDegree implements Adjacencer.
func (ca *CayleyAdjacency) MaxDegree() int { return ca.deg }

// MinDegree implements Adjacencer.
func (ca *CayleyAdjacency) MinDegree() int { return ca.deg }

// AppendNeighbors implements Adjacencer: generates u's neighbours in
// ascending order into buf. Safe for concurrent use — all mutable state
// is the caller's buffer and the stack.
//
// Single-bit generator sets, declared in any order, take the direct
// ascending walk (BasisWalk). A multi-bit mask topped by bit h moves u
// to a value that agrees with u above h and differs at h, so its group
// of masks lands where the single bit h would: the groups come in the
// order of the walk over their top bits, and only each group is
// insertion-sorted. Mixed-radix generators are generated in
// declaration order and insertion-sorted.
func (ca *CayleyAdjacency) AppendNeighbors(u int32, buf []int32) []int32 {
	buf = buf[:0]
	if ca.basis != 0 {
		for w := BasisWalk(u, ca.basis); w != 0; w &= w - 1 {
			buf = append(buf, BasisNeighbor(u, w))
		}
		return buf
	}
	if ca.masks != nil {
		for w := BasisWalk(u, ca.tops); w != 0; w &= w - 1 {
			h, lo := walkBit(w), len(buf)
			for _, m := range ca.masks[ca.topAt[h]:ca.topAt[h+1]] {
				buf = insertAscending(buf, lo, u^m)
			}
		}
		return buf
	}
	var digits [32]int32
	x := u
	for di, k := range ca.radices {
		digits[di] = x % k
		x /= k
	}
	for _, gen := range ca.gens {
		v := u
		for di, q := range gen {
			if q == 0 {
				continue
			}
			nd := digits[di] + q
			if nd >= ca.radices[di] {
				nd -= ca.radices[di]
			}
			v += (nd - digits[di]) * ca.strides[di]
		}
		buf = insertAscending(buf, 0, v)
	}
	return buf
}

// BasisWalk starts the ascending neighbour walk of u in the XOR Cayley
// graph whose generators are the single bits of basis (Q_n: basis =
// 2^n - 1). Clearing a set bit h gives u - 2^h, below u and ascending
// as h descends; setting a clear bit gives u + 2^h, above u and
// ascending with h. The walk word holds the set bits of u&basis
// bit-reversed in its low half and the clear bits of basis in its high
// half, so its trailing set bit is always the next neighbour in
// ascending order:
//
//	for w := BasisWalk(u, basis); w != 0; w &= w - 1 {
//		v := BasisNeighbor(u, w) // ascending, no sort, no buffer
//	}
//
// Both functions inline, which is how the final pass walks hypercube
// neighbourhoods at table speed without an interface call per node.
func BasisWalk(u int32, basis uint32) uint64 {
	return uint64(bits.Reverse32(uint32(u)&basis)) | uint64(^uint32(u)&basis)<<32
}

// BasisNeighbor returns the neighbour of u at w's trailing set bit: a
// low-half position p names bit 31-p, a high-half one bit p-32, and the
// mask (p>>5 - 1) & 31 picks between the two without a branch.
func BasisNeighbor(u int32, w uint64) int32 {
	p := bits.TrailingZeros64(w)
	return u ^ int32(1)<<((p^(p>>5-1)&31)&31)
}

// walkBit returns the bit of the basis that w's trailing set bit
// names, as BasisNeighbor reads it.
func walkBit(w uint64) int {
	p := bits.TrailingZeros64(w)
	return (p ^ (p>>5-1)&31) & 31
}

// insertAscending appends v to s and sorts it into s[lo:], which must be
// ascending (insertion sort — degrees are small, a few dozen at most).
func insertAscending(s []int32, lo int, v int32) []int32 {
	s = append(s, v)
	i := len(s) - 1
	for i > lo && s[i-1] > v {
		s[i] = s[i-1]
		i--
	}
	s[i] = v
	return s
}

// FootprintBytes estimates the resident bytes of the implicit adjacency:
// the descriptor arrays only — independent of node count.
func (ca *CayleyAdjacency) FootprintBytes() int64 {
	total := int64(4 * len(ca.masks))
	total += int64(4 * (len(ca.radices) + len(ca.strides)))
	for _, g := range ca.gens {
		total += int64(4 * len(g))
	}
	total += int64(4 * len(ca.topAt))
	return total + 64 // struct header, slice headers
}

// CSRFootprintBytes estimates the resident bytes of a CSR graph on n
// nodes with m undirected edges: the offset and target arrays.
func CSRFootprintBytes(n, m int) int64 {
	return int64(n+1)*4 + int64(2*m)*4
}

// NeighborsOfSetOnInto is NeighborsOfSetInto over any Adjacencer: it
// computes the boundary N(set) — nodes outside set adjacent to a member
// — into out (cleared first). CSR-backed adjacencies take the graph's
// own word-level implementation; implicit ones run the same
// dense/sparse strategy over generated neighbourhoods, using buf as the
// generation buffer. Returns buf (possibly grown) for reuse.
func NeighborsOfSetOnInto(a Adjacencer, set, out *bitset.Set, buf []int32) []int32 {
	if g := CSR(a); g != nil {
		g.NeighborsOfSetInto(set, out)
		return buf
	}
	n := a.N()
	if set.Len() != n {
		panic("graph: NeighborsOfSet capacity mismatch with graph size")
	}
	out.Clear()
	words := set.Words()
	if 2*set.Count() > n {
		// Dense set: scan the small complement and ask each outside node
		// whether any neighbour is a member.
		for wi, w := range words {
			inv := ^w
			if wi == len(words)-1 {
				if tail := uint(n & 63); tail != 0 {
					inv &= (1 << tail) - 1
				}
			}
			for inv != 0 {
				v := int32(wi<<6 + bits.TrailingZeros64(inv))
				inv &= inv - 1
				buf = a.AppendNeighbors(v, buf)
				for _, u := range buf {
					if set.Contains(int(u)) {
						out.Add(int(v))
						break
					}
				}
			}
		}
		return buf
	}
	for wi, w := range words {
		for w != 0 {
			u := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			buf = a.AppendNeighbors(u, buf)
			for _, v := range buf {
				out.Add(int(v))
			}
		}
	}
	out.Subtract(set)
	return buf
}
