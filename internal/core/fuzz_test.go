package core

import (
	"slices"
	"testing"
)

// The fuzz tier targets the XOR step compiler — the piece of the
// kernel layer whose correctness burden is an *ordering* argument, not
// a data-path one: every emitted schedule must visit each candidate's
// testers in strictly ascending node order (the reference pass's test
// prefix) and cover each generator exactly once. The target checks the
// compiled schedule against the naive comparison sort of the testers.
// Its seed corpus lives in testdata/fuzz/ and covers the deployed
// families (Q/FQ/EQ/AQ mask sets).

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

// xorScheduleSeeds is FuzzCompileXORSchedule's in-code seed corpus.
var xorScheduleSeeds = [][]byte{
	{6, 0, 1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 32},   // Q6-like
	{7, 0, 1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 63},   // folded
	{11, 0, 1, 0, 3, 0, 7, 0, 15, 0, 31, 0, 63}, // augmented runs
	{3, 9, 9, 9, 9}, // duplicates
	{12, 255, 255, 1, 2, 3, 4, 5, 6, 7, 8},
}

// FuzzCompileXORSchedule pins compileXORSchedule: a duplicate-free
// mask set of this size always compiles, a duplicated one never does,
// and a compiled schedule is order-exact — for every candidate v the
// steps whose conditions v satisfies yield exactly the testers
// {v ⊕ m} in strictly ascending order, matching the naive sort.
func FuzzCompileXORSchedule(f *testing.F) {
	for _, seed := range xorScheduleSeeds {
		f.Add(seed)
	}
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
				if uint32(v)&st.care != st.val {
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
