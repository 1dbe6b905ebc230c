package topology

import "comparisondiag/internal/graph"

// CayleyStructured is the optional Network extension through which a
// family declares the algebraic structure it was constructed from:
// XOR generator sets for the binary-cube variants, additive ±1-per-digit
// generators for k-ary tori, and mixed-radix digit generators for
// augmented k-ary n-cubes, whose run edges wrap each digit
// independently (see graph.CayleyDescriptor). Engines use the
// declaration to bind a word-parallel final-pass kernel, but only once
// it is confirmed against the CSR adjacency, so a buggy declaration
// degrades to the generic kernel instead of corrupting results. The
// four XOR families (Q_n, FQ_n, Q_{n,f}, AQ_n) build their CSR from the
// declaration itself with graph.FromXORCayley, which checks every block
// as it writes it, so graph.VerifyCayley accepts that declaration
// without a second scan; every other declaration is scanned by
// graph.VerifyCayley at bind.
//
// Families whose edge rules are node-dependent — crossed cubes
// (pair-relations), twisted cubes and twisted N-cubes (a rewired face),
// shuffle cubes (suffix-selected tables), the permutation families —
// have no uniform generator set and correctly do not implement this
// interface.
type CayleyStructured interface {
	Network
	// CayleyStructure returns the instance's descriptor, or nil when
	// this particular instance declares none.
	CayleyStructure() graph.CayleyDescriptor
}

// xorCSR builds a binary-cube family's CSR on 2^n nodes of degree deg
// with graph.FromXORCayley from the generator set desc declares,
// panicking as buildCSR does on a graph an int32 CSR cannot index. The
// bounds are checked from n and deg before desc builds its mask list,
// whose length grows with n.
func xorCSR(n, deg int, desc func() graph.XORCayley) *graph.Graph {
	if err := graph.CheckInt32Bounds(pow(2, n), deg); err != nil {
		panic(err.Error())
	}
	g, err := graph.FromXORCayley(desc())
	if err != nil {
		panic(err.Error())
	}
	return g
}

// xorBasis returns the single-bit masks {2^0 … 2^(n-1)} that every
// binary-cube variant's declaration starts from.
func xorBasis(n int) []int32 {
	masks := make([]int32, n)
	for b := range masks {
		masks[b] = 1 << uint(b)
	}
	return masks
}
