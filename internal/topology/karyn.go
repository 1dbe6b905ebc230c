package topology

import (
	"fmt"

	"comparisondiag/internal/graph"
)

// KAryNCube is the k-ary n-cube Q^k_n: nodes are n-digit base-k strings,
// with edges joining strings differing by ±1 (mod k) in one digit.
// Degree 2n for k ≥ 3, connectivity 2n [5], diagnosability 2n except for
// the small cases listed in [6] (the paper excludes (k,n) ∈ {(3,2),
// (3,3), (3,4), (4,2), (4,3), (5,2)}).
type KAryNCube struct {
	k, n int
	g    *graph.Graph
}

// NewKAryNCube constructs Q^k_n for k ≥ 3, n ≥ 1.
func NewKAryNCube(k, n int) *KAryNCube {
	if k < 3 || n < 1 {
		panic("topology: k-ary n-cube needs k ≥ 3, n ≥ 1")
	}
	N := pow(k, n)
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		stride := int32(1)
		x := u
		for d := 0; d < n; d++ {
			digit := x % int32(k)
			up := u + stride
			if digit == int32(k-1) {
				up = u - int32(k-1)*stride
			}
			down := u - stride
			if digit == 0 {
				down = u + int32(k-1)*stride
			}
			dst = append(dst, up, down)
			x /= int32(k)
			stride *= int32(k)
		}
		return dst
	})
	return &KAryNCube{k: k, n: n, g: g}
}

// Name implements Network.
func (q *KAryNCube) Name() string { return fmt.Sprintf("Q^%d_%d", q.k, q.n) }

// Arity returns k; Dim returns n.
func (q *KAryNCube) Arity() int { return q.k }

// Dim returns n.
func (q *KAryNCube) Dim() int { return q.n }

// Graph implements Network.
func (q *KAryNCube) Graph() *graph.Graph { return q.g }

// Connectivity implements Network: κ(Q^k_n) = 2n [5].
func (q *KAryNCube) Connectivity() int { return 2 * q.n }

// Diagnosability implements Network: δ(Q^k_n) = 2n outside the small
// exceptions of [6]. Q^k_1 is the k-cycle, where an exhaustive search
// over every pair of fault sets finds δ = 0 for k ≤ 4 and δ = 1 for
// 5 ≤ k ≤ 8.
func (q *KAryNCube) Diagnosability() int {
	switch {
	case q.n == 1 && q.k <= 4:
		return 0
	case q.n == 1 && q.k <= 8:
		return 1
	}
	return 2 * q.n
}

// CayleyStructure implements CayleyStructured: Q^k_n is the Cayley
// graph of Z_k^n with the ±1-per-digit generators. (The augmented
// variant declares the general mixed-radix descriptor instead: its run
// edges wrap each digit independently, which no fixed id delta — and
// hence no AdditiveCayley — expresses.)
func (q *KAryNCube) CayleyStructure() graph.CayleyDescriptor {
	return graph.AdditiveCayley{K: q.k, Dims: q.n}
}

// Parts implements Network: fixing the high n-m digits yields k^{n-m}
// copies of Q^k_m as contiguous ranges (min induced degree 2m ≥ 2).
func (q *KAryNCube) Parts(minSize, minCount int) ([]Part, error) {
	return karyParts(q.g, q.k, q.n, minSize, minCount)
}

func karyParts(g *graph.Graph, k, n, minSize, minCount int) ([]Part, error) {
	var levels []granularity
	for m := 1; m < n; m++ {
		size := pow(k, m)
		count := pow(k, n-m)
		levels = append(levels, granularity{size, count, func() []Part {
			return rangeParts(pow(k, n), size)
		}})
	}
	return chooseParts(g, levels, minSize, minCount)
}

// AugmentedKAryNCube is AQ_{n,k} of Xiang and Stewart [25]: Q^k_n plus
// "run" edges u ~ u ± (1,…,1,0,…,0) over the i low digits for each
// i = 2..n. Degree 4n-2, connectivity 4n-2 [25], diagnosability 4n-2 for
// (n,k) ≠ (2,3) [6].
//
// (As with the augmented cube we place the incremented run at the low
// digits so high-digit partitions induce the recursive sub-copies.)
type AugmentedKAryNCube struct {
	k, n int
	g    *graph.Graph
}

// NewAugmentedKAryNCube constructs AQ_{n,k} for k ≥ 3, n ≥ 2. Note [6]
// does not certify δ = 4n-2 for (n,k) = (2,3).
func NewAugmentedKAryNCube(k, n int) *AugmentedKAryNCube {
	if k < 3 || n < 2 {
		panic("topology: augmented k-ary n-cube needs k ≥ 3, n ≥ 2")
	}
	N := pow(k, n)
	// runDelta[i] = id-space delta of +(1,…,1 over i low digits).
	digits := make([]int32, n)
	g := buildCSR(N, func(dst []int32, u int32) []int32 {
		x := u
		for d := 0; d < n; d++ {
			digits[d] = x % int32(k)
			x /= int32(k)
		}
		// ±1 per digit (torus edges).
		stride := int32(1)
		for d := 0; d < n; d++ {
			up := u + stride
			if digits[d] == int32(k-1) {
				up = u - int32(k-1)*stride
			}
			down := u - stride
			if digits[d] == 0 {
				down = u + int32(k-1)*stride
			}
			dst = append(dst, up, down)
			stride *= int32(k)
		}
		// ± runs of length i over the low digits.
		for i := 2; i <= n; i++ {
			up, down := u, u
			stride = 1
			for d := 0; d < i; d++ {
				if digits[d] == int32(k-1) {
					up -= int32(k-1) * stride
				} else {
					up += stride
				}
				if digits[d] == 0 {
					down += int32(k-1) * stride
				} else {
					down -= stride
				}
				stride *= int32(k)
			}
			dst = append(dst, up, down)
		}
		return dst
	})
	return &AugmentedKAryNCube{k: k, n: n, g: g}
}

// Name implements Network.
func (a *AugmentedKAryNCube) Name() string { return fmt.Sprintf("AQ(%d,%d)", a.n, a.k) }

// Arity returns k; Dim returns n.
func (a *AugmentedKAryNCube) Arity() int { return a.k }

// Dim returns n.
func (a *AugmentedKAryNCube) Dim() int { return a.n }

// Graph implements Network.
func (a *AugmentedKAryNCube) Graph() *graph.Graph { return a.g }

// Connectivity implements Network: κ(AQ_{n,k}) = 4n-2 [25].
func (a *AugmentedKAryNCube) Connectivity() int { return 4*a.n - 2 }

// Diagnosability implements Network: δ(AQ_{n,k}) = 4n-2 for
// (n,k) ≠ (2,3) [6]. For (2,3) an exhaustive search over every pair of
// fault sets finds δ = 4.
func (a *AugmentedKAryNCube) Diagnosability() int {
	if a.n == 2 && a.k == 3 {
		return 4
	}
	return 4*a.n - 2
}

// Parts implements Network. Run edges over i ≤ m low digits stay inside
// a high-digit part, so each part induces AQ_{m,k} (or the torus cycle
// C_k when m = 1, still connected with degree 2).
func (a *AugmentedKAryNCube) Parts(minSize, minCount int) ([]Part, error) {
	return karyParts(a.g, a.k, a.n, minSize, minCount)
}

// CayleyStructure implements CayleyStructured: AQ_{n,k} is the Cayley
// graph of Z_k^n whose generators are the ±1 unit vectors (the torus
// edges) plus the ± run vectors (1,…,1,0,…,0) over the i low digits for
// i = 2..n. The run additions wrap every digit independently, so their
// id-space deltas are node-dependent and only the mixed-radix
// descriptor (with its per-borrow-pattern step compilation in the
// engine) expresses them.
func (a *AugmentedKAryNCube) CayleyStructure() graph.CayleyDescriptor {
	radices := make([]int, a.n)
	for d := range radices {
		radices[d] = a.k
	}
	var gens [][]int
	unit := func(d, q int) []int {
		g := make([]int, a.n)
		g[d] = q
		return g
	}
	for d := 0; d < a.n; d++ {
		gens = append(gens, unit(d, 1), unit(d, a.k-1))
	}
	for i := 2; i <= a.n; i++ {
		up := make([]int, a.n)
		down := make([]int, a.n)
		for d := 0; d < i; d++ {
			up[d] = 1
			down[d] = a.k - 1
		}
		gens = append(gens, up, down)
	}
	return graph.MixedRadixCayley{Radices: radices, Gens: gens}
}
