package core

import (
	"slices"
	"testing"

	"comparisondiag/internal/graph"
)

// The fuzz tier targets the two step compilers — the pieces of the
// kernel layer whose correctness burden is an *ordering* argument, not
// a data-path one: every emitted schedule must visit each candidate's
// testers in strictly ascending node order (the reference pass's test
// prefix) and cover each generator exactly once. Both targets check the
// compiled schedule against the naive comparison sort of the testers.
// Seed corpora live in testdata/fuzz/ and cover the deployed families
// (Q/FQ/EQ/AQ mask sets, torus and augmented k-ary radix shapes).

// fuzzMasks decodes a mask set from fuzz bytes: 2..12 masks of up to
// 10 bits. Duplicates are possible (and meaningful: the compiler must
// refuse them).
func fuzzMasks(data []byte) []int32 {
	if len(data) < 3 {
		return nil
	}
	n := 2 + int(data[0])%11
	masks := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		a := data[1+(2*i)%(len(data)-1)]
		b := data[1+(2*i+1)%(len(data)-1)]
		m := int32(a)<<8 | int32(b)
		m = 1 + (m+int32(i))%1023
		masks = append(masks, m)
	}
	return masks
}

// FuzzCompileXORSchedule pins compileXORSchedule: a duplicate-free
// mask set of this size always compiles, a duplicated one never does,
// and a compiled schedule is order-exact — for every candidate v the
// steps whose conditions v satisfies yield exactly the testers
// {v ⊕ m} in strictly ascending order, matching the naive sort.
func FuzzCompileXORSchedule(f *testing.F) {
	f.Add([]byte{6, 0, 1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 32})   // Q6-like
	f.Add([]byte{7, 0, 1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 63})   // folded
	f.Add([]byte{11, 0, 1, 0, 3, 0, 7, 0, 15, 0, 31, 0, 63}) // augmented runs
	f.Add([]byte{3, 9, 9, 9, 9})                             // duplicates
	f.Add([]byte{12, 255, 255, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		masks := fuzzMasks(data)
		if masks == nil {
			return
		}
		dup := false
		for i := range masks {
			for j := i + 1; j < len(masks); j++ {
				if masks[i] == masks[j] {
					dup = true
				}
			}
		}
		sched := compileXORSchedule(masks)
		if dup {
			if sched != nil {
				t.Fatalf("masks %v: duplicates compiled", masks)
			}
			return
		}
		if sched == nil {
			// ≤ 12 distinct masks expand well below the step cap, so a
			// refusal here is a compiler bug.
			t.Fatalf("masks %v: duplicate-free set refused", masks)
		}
		for v := int32(0); v < 1024; v++ {
			want := make([]int32, len(masks))
			for i, m := range masks {
				want[i] = v ^ m
			}
			slices.Sort(want) // the naive comparison sort
			var got []int32
			seen := map[int32]bool{}
			for _, st := range sched {
				ok := true
				for _, lt := range st.lits {
					if (v&(1<<uint(lt.bit)) != 0) != lt.val {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if seen[st.mask] {
					t.Fatalf("masks %v v=%d: mask %#x scheduled twice", masks, v, st.mask)
				}
				seen[st.mask] = true
				got = append(got, v^st.mask)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("masks %v v=%d: schedule order %v, naive sort %v", masks, v, got, want)
			}
		}
	})
}

// fuzzMixedRadix decodes a mixed-radix descriptor from fuzz bytes:
// 3..4 dimensions of arity 2..5 and 1..3 distinct non-zero generator
// digit vectors.
func fuzzMixedRadix(data []byte) *graph.MixedRadixCayley {
	if len(data) < 8 {
		return nil
	}
	dims := 3 + int(data[0])%2
	radices := make([]int, dims)
	for d := range radices {
		radices[d] = 2 + int(data[1+d])%4
	}
	nGens := 1 + int(data[1+dims])%3
	at := 2 + dims
	var gens [][]int
	for i := 0; i < nGens; i++ {
		gen := make([]int, dims)
		zero := true
		for d := range gen {
			gen[d] = int(data[(at+i*dims+d)%len(data)]) % radices[d]
			if gen[d] != 0 {
				zero = false
			}
		}
		if zero {
			continue
		}
		dup := false
		for _, g := range gens {
			if slices.Equal(g, gen) {
				dup = true
				break
			}
		}
		if !dup {
			gens = append(gens, gen)
		}
	}
	if len(gens) == 0 {
		return nil
	}
	return &graph.MixedRadixCayley{Radices: radices, Gens: gens}
}

// FuzzMixedRadixSteps pins the mixed-radix step compiler: the emitted
// addStep schedule (one step per generator × borrow pattern, sorted by
// descending shift) must, for every candidate id v, select exactly the
// testers {v ⊖ g : g ∈ Gens} in strictly ascending order — the naive
// comparison sort of the digit-wise subtractions.
func FuzzMixedRadixSteps(f *testing.F) {
	f.Add([]byte{0, 2, 2, 2, 1, 1, 0, 0, 1, 1, 1, 0})       // torus-ish unit + run
	f.Add([]byte{1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 3, 3, 3, 3}) // 4 dims
	f.Add([]byte{0, 3, 1, 0, 2, 2, 1, 1, 1, 2, 2, 0})       // augmented shape
	f.Fuzz(func(t *testing.T, data []byte) {
		mr := fuzzMixedRadix(data)
		if mr == nil {
			return
		}
		n := mr.Order()
		if n < 64 || n > 4096 {
			return // below the kernel's word floor / needlessly slow
		}
		// The binder only reads the graph's size and max degree, so a
		// ring of the right order stands in for the real adjacency —
		// this fuzzes the schedule compiler, not descriptor validation.
		g := graph.FromAdjacency(n, func(dst []int32, u int32) []int32 {
			return append(dst, int32((int(u)+1)%n), int32((int(u)+n-1)%n))
		})
		k := bindMixedRadixKernel(*mr, g)
		if k == nil {
			t.Fatalf("radices %v gens %v: binder refused a well-formed descriptor", mr.Radices, mr.Gens)
		}
		steps := k.(*additiveKernel).steps

		stride := make([]int, len(mr.Radices))
		s := 1
		for d, kd := range mr.Radices {
			stride[d] = s
			s *= kd
		}
		sub := func(v int, gen []int) int {
			u := 0
			x := v
			for d, kd := range mr.Radices {
				digit := x % kd
				x /= kd
				u += ((digit - gen[d] + kd) % kd) * stride[d]
			}
			return u
		}
		for v := 0; v < n; v++ {
			want := make([]int, 0, len(mr.Gens))
			for _, gen := range mr.Gens {
				want = append(want, sub(v, gen))
			}
			slices.Sort(want) // the naive comparison sort
			var got []int
			for si := range steps {
				st := &steps[si]
				// The pruner may have rewritten the step to an explicit
				// candidate list (see addStep.ids); membership is then a
				// search in the ascending ids instead of a mask probe.
				if st.ids != nil {
					if _, ok := slices.BinarySearch(st.ids, int32(v)); !ok {
						continue
					}
				} else if st.cond[v>>6]&(1<<(uint(v)&63)) == 0 {
					continue
				}
				u := v - st.shift
				if u < 0 || u >= n {
					t.Fatalf("radices %v gens %v v=%d: tester %d out of range", mr.Radices, mr.Gens, v, u)
				}
				got = append(got, u)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("radices %v gens %v v=%d: schedule order %v, naive sort %v",
					mr.Radices, mr.Gens, v, got, want)
			}
		}
	})
}
