package core

import (
	"math/bits"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// The additive-rotate kernel: word-parallel final-pass rounds for k-ary
// n-cubes (tori), where node ids are n-digit base-k strings and every
// node is adjacent to u ± 1 (mod k) in each digit. Rotating digit d by
// ±1 shifts a node's id by ±k^d except at the wrap, so the set of
// candidates reachable from the frontier across one generator direction
// is the frontier bitset funnel-shifted by a fixed bit distance, gated
// by a precomputed digit-condition mask that encodes the wrap:
//
//	v = u + s_d     needs digit_d(v) ≥ 1     (no carry out of digit d)
//	v = u + (k-1)s_d needs digit_d(v) = k-1  (the 0 → k-1 wrap)
//	v = u - s_d     needs digit_d(v) ≤ k-2   (no borrow)
//	v = u - (k-1)s_d needs digit_d(v) = 0    (the k-1 → 0 wrap)
//
// A shifted id whose digit-d addition carried (or subtraction borrowed)
// lands outside the condition mask, so only genuine torus edges
// survive — no per-node digit arithmetic in the round. Because the
// conditions are arbitrary N-bit masks (k^d periods don't align with
// words), they are materialised per dimension at bind time; the funnel
// shift itself is ~3 ALU ops per word for 64 candidates, for any k.
//
// Exactness. Candidate v's testers below it have deltas s_d (digit ≥ 1)
// and (k-1)s_d (digit = k-1); above it, s_d (digit ≤ k-2) and (k-1)s_d
// (digit = 0). Since (k-1)s_d < k·s_d = s_{d+1} ≤ (k-1)s_{d+1} and
// s_d < (k-1)s_d for k ≥ 3, the deltas interleave totally:
//
//	… > (k-1)s_1 > s_1 > (k-1)s_0 > s_0   (descending: below-testers)
//	s_0 < (k-1)s_0 < s_1 < (k-1)s_1 < …   (ascending: above-testers)
//
// so walking dimensions descending with the two "+" steps, then
// ascending with the two "−" steps, visits every candidate's testers in
// ascending node order — the reference pass's exact prefix (see
// runFinalPass for the shared round loop and equivalence argument).

// addStep is one schedule entry: candidates gated by cond are tested by
// their frontier neighbour at v - shift. words indexes cond's non-zero
// words, so a round only visits words that can produce candidates —
// high-dimension wrap conditions (digit = 0 or k-1 at stride ≥ 64) are
// block-sparse, and scanning their empty words would dominate the
// round cost.
type addStep struct {
	shift int      // tester of candidate v is v - shift
	cond  []uint64 // digit condition on v, tail-masked to [0, n)
	words []int32  // indices of non-zero cond words
}

// stepWords fills each step's non-zero word index list and returns the
// total word-visit cost of one round.
func stepWords(steps []addStep) int {
	cost := 0
	for si := range steps {
		st := &steps[si]
		st.words = st.words[:0]
		for wi, w := range st.cond {
			if w != 0 {
				st.words = append(st.words, int32(wi))
			}
		}
		cost += len(st.words)
	}
	return cost
}

type additiveKernel struct {
	steps     []addStep
	threshold int // frontier size where word rounds beat the sweep
}

// bindAdditiveKernel binds the kernel to a graph declared (and
// verified) to be a k-ary Dims-cube. Floor: ≥ 64 nodes; k ≥ 3 keeps the
// two generator directions distinct.
func bindAdditiveKernel(desc graph.CayleyDescriptor, a graph.Adjacencer) wordRounder {
	ac, ok := desc.(graph.AdditiveCayley)
	if !ok {
		return nil
	}
	n := a.N()
	if n < 64 || ac.K < 3 || ac.Dims < 1 || ac.Order() != n {
		return nil
	}
	k, dims := ac.K, ac.Dims
	words := (n + 63) / 64

	// Digit-condition masks, one pass over the id space: eq0[d] selects
	// ids with digit d = 0, eqTop[d] those with digit d = k-1; the two
	// complements are taken against the valid-id tail mask (k^n is not
	// a word multiple for odd k).
	eq0 := make([][]uint64, dims)
	eqTop := make([][]uint64, dims)
	notZero := make([][]uint64, dims)
	notTop := make([][]uint64, dims)
	for d := 0; d < dims; d++ {
		eq0[d] = make([]uint64, words)
		eqTop[d] = make([]uint64, words)
		notZero[d] = make([]uint64, words)
		notTop[d] = make([]uint64, words)
	}
	for v := 0; v < n; v++ {
		x := v
		bit := uint64(1) << (uint(v) & 63)
		wi := v >> 6
		for d := 0; d < dims; d++ {
			switch digit := x % k; digit {
			case 0:
				eq0[d][wi] |= bit
			case k - 1:
				eqTop[d][wi] |= bit
			}
			x /= k
		}
	}
	for wi := 0; wi < words; wi++ {
		valid := ^uint64(0)
		if wi == words-1 && n&63 != 0 {
			valid = 1<<(uint(n)&63) - 1
		}
		for d := 0; d < dims; d++ {
			notZero[d][wi] = valid &^ eq0[d][wi]
			notTop[d][wi] = valid &^ eqTop[d][wi]
		}
	}

	stride := make([]int, dims)
	s := 1
	for d := 0; d < dims; d++ {
		stride[d] = s
		s *= k
	}
	// The order-exact schedule (see the file comment): below-testers by
	// descending delta, then above-testers by ascending delta.
	steps := make([]addStep, 0, 4*dims)
	for d := dims - 1; d >= 0; d-- {
		steps = append(steps,
			addStep{shift: (k - 1) * stride[d], cond: eqTop[d]},
			addStep{shift: stride[d], cond: notZero[d]},
		)
	}
	for d := 0; d < dims; d++ {
		steps = append(steps,
			addStep{shift: -stride[d], cond: notTop[d]},
			addStep{shift: -(k - 1) * stride[d], cond: eq0[d]},
		)
	}
	// Every step funnel-shifts the frontier bitset across its live
	// words, so a round costs the summed non-zero word count.
	return &additiveKernel{steps: steps, threshold: sweepThresholdFor(stepWords(steps), a)}
}

// Name implements wordRounder.
func (k *additiveKernel) Name() string { return "additive-rotate" }

func (k *additiveKernel) sweepThreshold() int { return k.threshold }

// round implements wordRounder: per step, the frontier bitset is
// funnel-shifted by the step's delta (out-of-range words read as zero —
// the condition mask has already excluded every wrap that isn't a real
// edge) and surviving candidates are tested by v - shift.
func (k *additiveKernel) round(fw, uw []uint64, parent []int32, l *syndrome.Lazy) int {
	admitted := 0
	words := len(fw)
	for si := range k.steps {
		st := &k.steps[si]
		t := st.shift
		qoff := (-t) >> 6 // floor division: int shifts are arithmetic
		r := uint((-t) & 63)
		for _, wi32 := range st.words {
			wi := int(wi32)
			cw := st.cond[wi] &^ uw[wi]
			if cw == 0 {
				continue
			}
			// 64 bits of the frontier starting at bit wi·64 - t: bit b
			// is the tester of candidate wi·64 + b.
			q := wi + qoff
			var w uint64
			if r == 0 {
				if uint(q) < uint(words) {
					w = fw[q]
				}
			} else {
				if uint(q) < uint(words) {
					w = fw[q] >> r
				}
				if uint(q+1) < uint(words) {
					w |= fw[q+1] << (64 - r)
				}
			}
			if w &= cw; w != 0 {
				base := int32(wi) << 6
				for ; w != 0; w &= w - 1 {
					v := base + int32(bits.TrailingZeros64(w))
					u := v - int32(t)
					if l.Test(u, v, parent[u]) == 0 {
						uw[v>>6] |= 1 << (uint32(v) & 63)
						parent[v] = u
						admitted++
					}
				}
			}
		}
	}
	return admitted
}
