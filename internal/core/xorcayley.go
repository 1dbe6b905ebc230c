package core

import (
	"math/bits"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// The XOR-Cayley kernel: word-parallel final-pass rounds for any graph
// with N(u) = {u ⊕ m : m ∈ masks} — plain hypercubes (single-bit
// masks, the paper's flagship Q_n family) and the multi-bit variants
// (folded/enhanced hypercubes' complement mask, augmented cubes' run
// masks). XOR by a mask permutes the node bitset, and that permutation
// is a composition of one delta swap per low mask bit (d < 6, in-word
// butterflies) plus one word-index XOR for the high bits — so each
// round discovers 64 admission candidates per handful of ALU ops
// instead of one adjacency visit per edge.
//
// Exactness. The reference pass tests each candidate v by its frontier
// neighbours in ascending node order until one answers 0. For XOR
// generators the tester via mask m is u = v ⊕ m, and for two masks
// m1, m2 the order of their testers is decided by one bit of v:
//
//	v⊕m1 < v⊕m2  ⇔  v_h = (m1)_h,  h = msb(m1 ⊕ m2)
//
// (the two testers differ exactly at the bits of m1⊕m2, so the highest
// such bit decides). compileXORSchedule turns that comparator into a
// fixed sequence of steps (mask, condition-on-v) whose per-candidate
// subsequence is sorted for every v: split the mask set at the highest
// bit h where it disagrees into A (bit set) and B (bit clear); for
// candidates with v_h = 1 all of A's testers precede all of B's, and
// vice versa; within each side the order depends only on lower bits.
// Emitting the smaller side twice under complementary v_h conditions
// around the other side realises both orders in one linear schedule:
//
//	[A | v_h=1]  [B]  [A | v_h=0]
//
// For Q_n this compiles to exactly the two-phase dimension sweep of the
// PR 2 kernel (descending dimensions over v_d=1, ascending over
// v_d=0); for FQ_n/AQ_n it interleaves the multi-bit masks at their
// v-dependent rank. Step conditions are conjunctions of single-bit
// literals, held as two bitmasks (care, val) and encoded as a
// word-index filter (bits ≥ 6) plus an in-word pattern (bits < 6), so
// a step still costs a handful of ALU ops per 64 candidates.
//
// Admissions update U immediately, so a node admitted by one step
// vanishes from every later step's candidate words — exactly the
// reference's prefix-until-0 suppression (see runFinalPass for the
// shared round loop and the full equivalence argument).

// deltaSwapMasks[d] selects the lower element of each bit pair at
// distance 2^d — the classic butterfly masks. Its complement is the
// set of in-word positions whose node id has bit d set.
var deltaSwapMasks = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// xorStep is one compiled schedule entry: test the candidates selected
// by the condition (wiMask/wiVal on the word index, pat in-word)
// against their frontier neighbour across mask.
type xorStep struct {
	mask    int32  // generator; the tester of candidate v is v ^ mask
	wordXor uint32 // mask >> 6: word reindex of the frontier read
	low     uint32 // mask & 63: in-word delta-swap composition
	wiMask  uint32 // word-index condition: process wi iff wi&wiMask == wiVal
	wiVal   uint32
	pat     uint64 // in-word candidate pattern from bit literals < 6
}

type xorKernel struct {
	steps     []xorStep
	multi     bool
	threshold int // frontier size where word rounds beat the sweep
}

// bindXORKernel binds the kernel to a graph declared (and verified) to
// be XOR-Cayley. Floors: ≥ 64 nodes (below that the word logic cannot
// win) and ≤ 32 generators; the descriptor must match the graph order
// and carry well-formed masks.
func bindXORKernel(desc graph.CayleyDescriptor, a graph.Adjacencer) wordRounder {
	xc, ok := desc.(graph.XORCayley)
	if !ok {
		return nil
	}
	n := a.N()
	if n < 64 || n&(n-1) != 0 || xc.Order() != n {
		return nil
	}
	if len(xc.Masks) == 0 || len(xc.Masks) > 32 {
		return nil
	}
	for _, m := range xc.Masks {
		if m <= 0 || int(m) >= n {
			return nil
		}
	}
	steps := compileXORSteps(xc.Masks)
	if steps == nil {
		return nil
	}
	// Round cost: word visits per round, each weighted by its
	// delta-swap chain (a step conditioned on j word-index bits touches
	// words/2^j words).
	words := n / 64
	cost := 0
	for _, st := range steps {
		cost += (words >> bits.OnesCount32(st.wiMask)) * (1 + bits.OnesCount32(st.low))
	}
	return &xorKernel{steps: steps, multi: xc.MultiBit(), threshold: sweepThresholdFor(cost, a)}
}

// xorSched is one schedule entry before encoding: a mask plus the
// condition gating it, a conjunction of single-bit literals on the
// candidate v held as two bitmasks — v is tested iff v&care == val.
type xorSched struct {
	mask      int32
	care, val uint32
}

// step encodes the entry for the kernel: the condition's bits ≥ 6 are
// the word-index filter, its bits < 6 the in-word candidate pattern.
func (e xorSched) step() xorStep {
	st := xorStep{
		mask:    e.mask,
		wordXor: uint32(e.mask >> 6),
		low:     uint32(e.mask & 63),
		wiMask:  e.care >> 6,
		wiVal:   e.val >> 6,
		pat:     ^uint64(0),
	}
	for d := range deltaSwapMasks {
		if e.care&(1<<uint(d)) == 0 {
			continue
		}
		if e.val&(1<<uint(d)) != 0 {
			st.pat &= ^deltaSwapMasks[d]
		} else {
			st.pat &= deltaSwapMasks[d]
		}
	}
	return st
}

// compileXORSteps is compileXORSchedule encoded for the kernel, nil
// where the schedule is refused.
func compileXORSteps(masks []int32) []xorStep {
	sched := compileXORSchedule(masks)
	if sched == nil {
		return nil
	}
	steps := make([]xorStep, len(sched))
	for i, s := range sched {
		steps[i] = s.step()
	}
	return steps
}

// compileXORSchedule emits the order-exact step sequence for a mask
// set (see the file comment for the construction). Returns nil on a
// degenerate mask set (duplicates — no disagreement bit to split on).
// The duplicate-smaller-side recursion keeps the schedule linear for
// every deployed family (2n-1 steps for Q_n, 2n+4 for FQ_n, ~6n for
// AQ_n); a pathological set could still blow up, so the length is
// capped and oversized schedules refuse to bind.
func compileXORSchedule(masks []int32) []xorSched {
	const maxSteps = 4096
	if len(masks) == 1 {
		return []xorSched{{mask: masks[0]}}
	}
	var or int32
	and := int32(-1)
	for _, m := range masks {
		or |= m
		and &= m
	}
	if or&^and == 0 {
		return nil // all masks equal: duplicates in the generator set
	}
	h := 31 - bits.LeadingZeros32(uint32(or&^and))
	a := make([]int32, 0, len(masks))
	b := make([]int32, 0, len(masks))
	for _, m := range masks {
		if m&(1<<uint(h)) != 0 {
			a = append(a, m)
		} else {
			b = append(b, m)
		}
	}
	sa, sb := compileXORSchedule(a), compileXORSchedule(b)
	if sa == nil || sb == nil {
		return nil
	}
	// For v_h = 1, A's testers (bit h flipped off) all precede B's; for
	// v_h = 0 the order reverses. Duplicate the smaller compiled side
	// under complementary v_h literals around the other side.
	var out []xorSched
	if len(sa) <= len(sb) {
		out = make([]xorSched, 0, 2*len(sa)+len(sb))
		out = appendXORLit(out, sa, h, true)
		out = append(out, sb...)
		out = appendXORLit(out, sa, h, false)
	} else {
		out = make([]xorSched, 0, len(sa)+2*len(sb))
		out = appendXORLit(out, sb, h, false)
		out = append(out, sa...)
		out = appendXORLit(out, sb, h, true)
	}
	if len(out) > maxSteps {
		return nil
	}
	return out
}

// appendXORLit appends the schedule to out with the literal v_bit = val
// added to every entry's condition.
func appendXORLit(out, s []xorSched, bit int, val bool) []xorSched {
	var v uint32
	if val {
		v = 1 << uint(bit)
	}
	for _, e := range s {
		e.care |= 1 << uint(bit)
		e.val |= v
		out = append(out, e)
	}
	return out
}

// Name implements wordRounder.
func (k *xorKernel) Name() string {
	if k.multi {
		return "xor-cayley[multi-bit]"
	}
	return "xor-cayley"
}

func (k *xorKernel) sweepThreshold() int { return k.threshold }

// round implements wordRounder: one sweep of the compiled schedule.
// Word indices matching a step's condition are enumerated directly
// (submask iteration over the free bits), so a step conditioned on j
// word bits touches only a 2^-j fraction of the bitset.
func (k *xorKernel) round(fw, uw []uint64, parent []int32, l *syndrome.Lazy) int {
	admitted := 0
	last := uint32(len(uw) - 1) // len(uw) is a power of two
	for si := range k.steps {
		st := &k.steps[si]
		free := last &^ st.wiMask
		s := uint32(0)
		for {
			wi := st.wiVal | s
			// The frontier word holding the testers of wi's candidates,
			// permuted into candidate positions: word-index XOR for the
			// high mask bits, one delta swap per low mask bit.
			w := fw[wi^st.wordXor]
			if w != 0 {
				for r := st.low; r != 0; r &= r - 1 {
					d := uint(bits.TrailingZeros32(r))
					lo := deltaSwapMasks[d]
					sh := uint(1) << d
					w = (w&lo)<<sh | (w>>sh)&lo
				}
				if w &= st.pat &^ uw[wi]; w != 0 {
					m := st.mask
					base := int32(wi) << 6
					for ; w != 0; w &= w - 1 {
						v := base + int32(bits.TrailingZeros64(w))
						u := v ^ m
						if l.Test(u, v, parent[u]) == 0 {
							uw[v>>6] |= 1 << (uint32(v) & 63)
							parent[v] = u
							admitted++
						}
					}
				}
			}
			s = (s - free) & free
			if s == 0 {
				break
			}
		}
	}
	return admitted
}
