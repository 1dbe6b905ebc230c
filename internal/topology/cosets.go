package topology

import (
	"math/bits"

	"comparisondiag/internal/graph"
)

// CayleyParts computes a Theorem-1 partition directly from a Cayley
// descriptor — no CSR edge scan, no graph at all. For the declared
// families the result is bit-identical to the family's own Parts: both
// pick the first (smallest) granularity level meeting minSize and
// minCount, and a level here is the same contiguous-id-range partition
// rangeParts builds — blocks of the first m dimensions' coordinates
// with the high coordinates fixed, i.e. cosets of the subgroup
// generated by the "confined" generators (those whose action never
// leaves a block).
//
// A level is admitted only when at least two generators are confined to
// its blocks and the confined generators generate the whole block
// (checked by BFS from the identity inside block 0 — cosets of a
// subgroup are isomorphic, so one block speaks for all). That gives
// every part the Theorem-1 shape without an edge in sight: each node
// keeps ≥ 2 distinct confined-generator neighbours inside its part
// (induced degree ≥ 2) and the block is connected.
//
// Levels the CSR path could only satisfy by padding (donating nodes
// between parts — an inherently graph-walking repair) are not
// reproducible from the descriptor; CayleyParts returns ErrNoPartition
// for those requests.
//
// CayleyParts builds every block: O(n) node ids. A diagnosis reads only
// the first minCount of them, which CayleyCandidates builds alone.
func CayleyParts(desc graph.CayleyDescriptor, minSize, minCount int) ([]Part, error) {
	n, size, err := cayleyBlockSize(desc, minSize, minCount)
	if err != nil {
		return nil, err
	}
	return rangeParts(n, size), nil
}

// CayleyCandidates returns the first minCount parts of
// CayleyParts(desc, minSize, minCount) — with minCount = δ+1, exactly
// the candidates a Theorem 1 diagnosis scans — without building the
// rest: the blocks are contiguous id ranges from 0, so the leading
// minCount of them are resolved from the block size alone. Memory is
// O(minCount · block size) ids, independent of the graph's order; the
// error contract is CayleyParts'.
func CayleyCandidates(desc graph.CayleyDescriptor, minSize, minCount int) ([]Part, error) {
	_, size, err := cayleyBlockSize(desc, minSize, minCount)
	if err != nil {
		return nil, err
	}
	return rangeParts(max(minCount, 0)*size, size), nil
}

// cayleyBlockSize resolves the coset level CayleyParts partitions at:
// the descriptor's order n and the block size of the first admissible
// level.
func cayleyBlockSize(desc graph.CayleyDescriptor, minSize, minCount int) (n, size int, err error) {
	switch d := desc.(type) {
	case graph.XORCayley:
		size, err = xorCosetBlock(d, minSize, minCount)
		return d.Order(), size, err
	case graph.AdditiveCayley:
		radices := make([]int, d.Dims)
		gens := make([][]int, 0, 2*d.Dims)
		for dim := 0; dim < d.Dims; dim++ {
			radices[dim] = d.K
			up := make([]int, d.Dims)
			down := make([]int, d.Dims)
			up[dim], down[dim] = 1, d.K-1
			gens = append(gens, up, down)
		}
		mr := graph.MixedRadixCayley{Radices: radices, Gens: gens}
		size, err = mixedRadixCosetBlock(mr, minSize, minCount)
		return mr.Order(), size, err
	case graph.MixedRadixCayley:
		size, err = mixedRadixCosetBlock(d, minSize, minCount)
		return d.Order(), size, err
	default:
		return 0, 0, ErrNoPartition
	}
}

// xorCosetBlock picks the first m ∈ [1, Bits) whose 2^m-sized blocks fit
// minSize/minCount and whose confined masks (those below 2^m) span
// GF(2)^m — span is the subgroup-coverage test, by Gaussian elimination
// — and returns the block size 2^m.
func xorCosetBlock(d graph.XORCayley, minSize, minCount int) (int, error) {
	n := d.Order()
	for m := 1; m < d.Bits; m++ {
		size := 1 << uint(m)
		count := n / size
		if size < minSize || count < minCount {
			continue
		}
		var confined []int32
		for _, mask := range d.Masks {
			if int(mask) < size {
				confined = append(confined, mask)
			}
		}
		if len(confined) < 2 || !spansBits(confined, m) {
			continue
		}
		return size, nil
	}
	return 0, ErrNoPartition
}

// spansBits reports whether the masks span GF(2)^m (Gaussian
// elimination keyed on each vector's leading bit).
func spansBits(masks []int32, m int) bool {
	pivot := make([]int32, m)
	rank := 0
	for _, v := range masks {
		for v != 0 {
			h := bits.Len32(uint32(v)) - 1
			if pivot[h] == 0 {
				pivot[h] = v
				rank++
				break
			}
			v ^= pivot[h]
		}
	}
	return rank == m
}

// mixedRadixCosetBlock picks the first md ∈ [1, dims) whose blocks
// (all coordinates of dimensions < md, high dimensions fixed — size
// ∏ Radices[:md]) fit minSize/minCount, have ≥ 2 confined generators
// (non-zero digits only below md) and are covered by a BFS over those
// generators from the identity, and returns that block size.
func mixedRadixCosetBlock(d graph.MixedRadixCayley, minSize, minCount int) (int, error) {
	dims := len(d.Radices)
	n := d.Order()
	for md := 1; md < dims; md++ {
		size := 1
		for _, k := range d.Radices[:md] {
			size *= k
		}
		count := n / size
		if size < minSize || count < minCount {
			continue
		}
		var confined [][]int
		for _, gen := range d.Gens {
			ok := true
			zero := true
			for di, q := range gen {
				if q == 0 {
					continue
				}
				zero = false
				if di >= md {
					ok = false
					break
				}
			}
			if ok && !zero {
				confined = append(confined, gen[:md])
			}
		}
		if len(confined) < 2 {
			continue
		}
		if !blockCovered(d.Radices[:md], confined, size) {
			continue
		}
		return size, nil
	}
	return 0, ErrNoPartition
}

// blockCovered reports whether BFS from node 0 over the given digit-
// vector generators reaches every node of the mixed-radix block.
func blockCovered(radices []int, gens [][]int, size int) bool {
	strides := make([]int32, len(radices))
	s := int32(1)
	for i, k := range radices {
		strides[i] = s
		s *= int32(k)
	}
	visited := make([]bool, size)
	visited[0] = true
	queue := make([]int32, 1, size)
	queue[0] = 0
	seen := 1
	digits := make([]int32, len(radices))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		x := u
		for di, k := range radices {
			digits[di] = x % int32(k)
			x /= int32(k)
		}
		for _, gen := range gens {
			v := u
			for di, q := range gen {
				if q == 0 {
					continue
				}
				nd := digits[di] + int32(q)
				if nd >= int32(radices[di]) {
					nd -= int32(radices[di])
				}
				v += (nd - digits[di]) * strides[di]
			}
			if !visited[v] {
				visited[v] = true
				seen++
				queue = append(queue, v)
			}
		}
	}
	return seen == size
}
