package graph

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// xorListing lists N(u) = {u ⊕ m} in declaration order, the adjacency
// FromAdjacency is given as the reference for FromXORCayley.
func xorListing(masks []int32) func(dst []int32, u int32) []int32 {
	return func(dst []int32, u int32) []int32 {
		for _, m := range masks {
			dst = append(dst, u^m)
		}
		return dst
	}
}

// enhancedMasks is Q_{n,f}'s generator set: the single bits plus the
// f high bits flipped together.
func enhancedMasks(n, f int) []int32 {
	return append(hyperMasks(n), int32((1<<uint(f)-1)<<uint(n-f)))
}

func augmentedMasks(n int) []int32 {
	masks := hyperMasks(n)
	for i := 1; i < n; i++ {
		masks = append(masks, 1<<uint(i+1)-1)
	}
	return masks
}

// TestFromXORCayleyMatchesFromAdjacency pins that the descriptor-built
// CSR of each binary-cube family is field for field the one
// FromAdjacency makes from the u⊕m listing, at exact capacity, and that
// it verifies against its own mask set in any order.
func TestFromXORCayleyMatchesFromAdjacency(t *testing.T) {
	for _, d := range []XORCayley{
		{Bits: 2, Masks: hyperMasks(2)},
		{Bits: 8, Masks: hyperMasks(8)},
		{Bits: 8, Masks: enhancedMasks(8, 8)},
		{Bits: 8, Masks: enhancedMasks(8, 3)},
		{Bits: 6, Masks: augmentedMasks(6)},
		{Bits: 5, Masks: []int32{31, 4, 1, 6}},
	} {
		g, err := FromXORCayley(d)
		if err != nil {
			t.Fatalf("%v %v: %v", d, d.Masks, err)
		}
		if ref := FromAdjacency(d.Order(), xorListing(d.Masks)); !sameCSR(g, ref) {
			t.Errorf("%v %v: CSR differs from FromAdjacency's", d, d.Masks)
		}
		if !exactCapacity(g) {
			t.Errorf("%v %v: target array has spare capacity", d, d.Masks)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%v %v: %v", d, d.Masks, err)
		}
		reversed := slices.Clone(d.Masks)
		slices.Reverse(reversed)
		if err := VerifyCayley(g, XORCayley{Bits: d.Bits, Masks: reversed}); err != nil {
			t.Errorf("%v %v: own masks reversed rejected: %v", d, d.Masks, err)
		}
	}
}

// TestVerifyCayleyScansGeneratedGraphs pins that a graph FromXORCayley
// built accepts only its own mask set without a scan: every other
// descriptor is scanned and rejected exactly as on a listed graph, and
// the graphs Remove and Restore derive from it record no descriptor.
func TestVerifyCayleyScansGeneratedGraphs(t *testing.T) {
	q8, err := FromXORCayley(XORCayley{Bits: 8, Masks: hyperMasks(8)})
	if err != nil {
		t.Fatal(err)
	}
	fq8, err := FromXORCayley(XORCayley{Bits: 8, Masks: enhancedMasks(8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		g    *Graph
		d    CayleyDescriptor
	}{
		{"Q8 against FQ8's masks", q8, XORCayley{Bits: 8, Masks: enhancedMasks(8, 8)}},
		{"FQ8 against Q8's masks", fq8, XORCayley{Bits: 8, Masks: hyperMasks(8)}},
		{"FQ8 against Q(8,3)'s masks", fq8, XORCayley{Bits: 8, Masks: enhancedMasks(8, 3)}},
		{"wrong order", q8, XORCayley{Bits: 9, Masks: hyperMasks(9)}},
		{"missing mask", q8, XORCayley{Bits: 8, Masks: hyperMasks(7)}},
		{"repeated mask", q8, XORCayley{Bits: 8, Masks: append(hyperMasks(8), 1)}},
		{"zero mask", q8, XORCayley{Bits: 8, Masks: append(hyperMasks(8)[:7], 0)}},
		{"additive on cube", q8, AdditiveCayley{K: 4, Dims: 4}},
		{"nil", q8, nil},
	}
	for _, c := range bad {
		if err := VerifyCayley(c.g, c.d); err == nil {
			t.Errorf("%s: descriptor accepted, want rejection", c.name)
		}
	}

	rr := q8.Remove(nil, [][2]int32{{0, 1}})
	if rr.G.xor != nil {
		t.Fatal("Remove carried the recorded descriptor over")
	}
	if err := VerifyCayley(rr.G, XORCayley{Bits: 8, Masks: hyperMasks(8)}); err == nil {
		t.Fatal("Q8 minus an edge verified as Q8")
	}
	gr := Restore(rr, nil, [][2]int32{{0, 1}})
	if gr.G.xor != nil {
		t.Fatal("Restore carried a recorded descriptor")
	}
	if err := VerifyCayley(gr.G, XORCayley{Bits: 8, Masks: hyperMasks(8)}); err != nil {
		t.Fatalf("restored Q8 rejected on its scan: %v", err)
	}
}

// TestFromXORCayleyRejects pins the error contract: the int32 bounds are
// refused first, naming int32, whatever the masks look like; then a
// malformed descriptor is refused by the shape check.
func TestFromXORCayleyRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		d    XORCayley
		want string
	}{
		{"Q27 arcs", XORCayley{Bits: 27, Masks: hyperMasks(27)}, "int32"},
		{"31 bits", XORCayley{Bits: 31, Masks: []int32{1}}, "int32"},
		{"64 bits, zero masks", XORCayley{Bits: 64, Masks: make([]int32, 64)}, "int32"},
		{"huge width", XORCayley{Bits: 1 << 40, Masks: []int32{1}}, "int32"},
		{"zero width", XORCayley{Bits: 0, Masks: []int32{1}}, "bit width"},
		{"negative width", XORCayley{Bits: -3, Masks: []int32{1}}, "bit width"},
		{"no generators", XORCayley{Bits: 4}, "no generators"},
		{"zero mask", XORCayley{Bits: 4, Masks: []int32{1, 0}}, "out of range"},
		{"mask too wide", XORCayley{Bits: 4, Masks: []int32{1, 16}}, "out of range"},
		{"negative mask", XORCayley{Bits: 4, Masks: []int32{1, -2}}, "out of range"},
		{"repeated mask", XORCayley{Bits: 4, Masks: []int32{3, 1, 3}}, "repeated"},
	} {
		g, err := FromXORCayley(c.d)
		if err == nil || g != nil {
			t.Errorf("%s: got a graph, want an error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}

// decodeXORCayley reads a descriptor of at most 10 bits and at most
// 2·bits masks from fuzz input: bits is taken mod 11, and each pair of
// mask bytes is one little-endian int16, so zero, negative, repeated
// and out-of-range masks all occur.
func decodeXORCayley(bitsIn byte, data []byte) XORCayley {
	d := XORCayley{Bits: int(bitsIn % 11)}
	for i := 0; i+1 < len(data) && len(d.Masks) < 2*d.Bits; i += 2 {
		d.Masks = append(d.Masks, int32(int16(binary.LittleEndian.Uint16(data[i:]))))
	}
	return d
}

// FuzzFromXORCayley checks FromXORCayley against the construction it
// replaces: FromAdjacency on the u⊕m listing followed by VerifyCayley.
// Each input is built in one node chunk and in three, which its ≤ 1,024
// nodes would never get from GOMAXPROCS. Either every build fails, with
// one error text, or every build succeeds with the same CSR, and then
// the generated one is at exact capacity and verifies against its own
// descriptor.
func FuzzFromXORCayley(f *testing.F) {
	f.Fuzz(func(t *testing.T, bitsIn byte, data []byte) {
		d := decodeXORCayley(bitsIn, data)
		got, err := fromXORCayley(d, 1)
		got3, err3 := fromXORCayley(d, 3)
		var ref *Graph
		msg := panicMessage(func() { ref = FromAdjacency(1<<uint(d.Bits), xorListing(d.Masks)) })
		refOK := msg == "" && VerifyCayley(ref, d) == nil
		switch {
		case fmt.Sprint(err) != fmt.Sprint(err3):
			t.Fatalf("%v %v: error %v in one chunk, %v in three", d, d.Masks, err, err3)
		case (err == nil) != refOK:
			t.Fatalf("%v %v: FromXORCayley error %v, reference ok = %v (panic %q)", d, d.Masks, err, refOK, msg)
		case err != nil:
			return
		case !sameCSR(got, ref) || !sameCSR(got3, ref):
			t.Fatalf("%v %v: CSR differs from the reference", d, d.Masks)
		case !exactCapacity(got) || !exactCapacity(got3):
			t.Fatalf("%v %v: target array has spare capacity", d, d.Masks)
		}
		if err := VerifyCayley(got, d); err != nil {
			t.Fatalf("%v %v: generated graph rejects its own descriptor: %v", d, d.Masks, err)
		}
	})
}

// TestFromXORCayleyChunked pins that the node-chunked build is the
// serial one: at GOMAXPROCS 2, 3 and 8 every family's CSR is byte for
// byte the CSR built at GOMAXPROCS 1, where the build runs in one chunk.
func TestFromXORCayleyChunked(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ds []XORCayley
	for n := 12; n <= 16; n++ {
		ds = append(ds, XORCayley{Bits: n, Masks: hyperMasks(n)})
	}
	ds = append(ds,
		XORCayley{Bits: 14, Masks: enhancedMasks(14, 14)},
		XORCayley{Bits: 13, Masks: augmentedMasks(13)},
		XORCayley{Bits: 14, Masks: enhancedMasks(14, 3)},
	)
	serial := make([]*Graph, len(ds))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for i, d := range ds {
			if procs > 1 && xorChunks(d.Order()) < 2 {
				t.Fatalf("%v at GOMAXPROCS %d: built in one chunk", d, procs)
			}
			g, err := FromXORCayley(d)
			if err != nil {
				t.Fatalf("%v at GOMAXPROCS %d: %v", d, procs, err)
			}
			if procs == 1 {
				serial[i] = g
				continue
			}
			if !sameCSR(g, serial[i]) || !exactCapacity(g) {
				t.Errorf("%v at GOMAXPROCS %d: CSR differs from the GOMAXPROCS 1 build", d, procs)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	if c := xorChunks(1 << 20); c != 1 {
		t.Errorf("GOMAXPROCS 1: %d chunks, want 1", c)
	}
	runtime.GOMAXPROCS(8)
	if c := xorChunks(2*minChunkNodes - 1); c != 1 {
		t.Errorf("below two chunks' worth of nodes: %d chunks, want 1", c)
	}
}

// TestXORChunkErrorIsSerial runs the chunk workers on mask tables that
// fail some nodes: the build returns the serial error, naming the lowest
// failing node, at every chunk count. A table missing one mask fails
// every node, so each chunk stops at its own first node. A ±1-per-digit
// torus's neighbours differ from u by node-dependent XORs, so a table
// of only the differences its lower half meets passes the lower half
// and fails a node past chunk 0 at every chunk count.
func TestXORChunkErrorIsSerial(t *testing.T) {
	type failing struct {
		name   string
		ca     *CayleyAdjacency
		isMask []bool
	}
	var cases []failing
	for _, d := range []XORCayley{
		{Bits: 12, Masks: hyperMasks(12)},
		{Bits: 12, Masks: augmentedMasks(12)},
	} {
		ca, err := NewCayleyAdjacency(d)
		if err != nil {
			t.Fatal(err)
		}
		isMask := maskTable(d.Order(), d.Masks)
		isMask[d.Masks[3]] = false
		cases = append(cases, failing{fmt.Sprintf("%v without mask %#x", d, d.Masks[3]), ca, isMask})

		offsets := make([]int32, d.Order()+1)
		targets := make([]int32, d.Order()*len(d.Masks))
		for _, lo := range []int32{1, 1000, int32(d.Order()) - 1} {
			err := writeXORBlocks(ca, isMask, offsets, targets, lo, int32(d.Order()))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("of node %d ", lo)) {
				t.Errorf("%v: chunk from node %d: error %v, want it to name node %d", d, lo, err, lo)
			}
		}
	}
	torus, err := NewCayleyAdjacency(AdditiveCayley{K: 3, Dims: 7})
	if err != nil {
		t.Fatal(err)
	}
	lowerHalf := make([]bool, 1<<12) // ids are below 3^7 < 2^12, and so is any XOR of two
	for u := int32(0); int(u) < torus.N()/2; u++ {
		for _, v := range torus.AppendNeighbors(u, nil) {
			lowerHalf[u^v] = true
		}
	}
	cases = append(cases, failing{"3-ary 7-cube, lower half's differences", torus, lowerHalf})

	for _, c := range cases {
		first := int32(-1) // the lowest failing node, found independently
		for u := int32(0); int(u) < c.ca.N() && first < 0; u++ {
			for _, v := range c.ca.AppendNeighbors(u, nil) {
				if !c.isMask[u^v] {
					first = u
					break
				}
			}
		}
		if first < 0 {
			t.Fatalf("%s: no node fails", c.name)
		}
		if c.ca == torus && int(first) < torus.N()/2 {
			t.Fatalf("%s: node %d fails in the lower half", c.name, first)
		}
		var want string
		for _, chunks := range []int{1, 2, 3, 8} {
			_, _, err := buildXORCSR(c.ca, c.isMask, chunks)
			switch {
			case err == nil:
				t.Errorf("%s: %d chunks built a CSR", c.name, chunks)
			case chunks == 1:
				want = err.Error()
				if !strings.Contains(want, fmt.Sprintf("of node %d ", first)) {
					t.Errorf("%s: serial error %q does not name node %d", c.name, want, first)
				}
			case err.Error() != want:
				t.Errorf("%s: %d chunks: error %q, serial %q", c.name, chunks, err, want)
			}
		}
	}
}
