package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
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

// TestFromXORCayleyChunked pins the build on the families large enough
// to have been written in parallel node chunks, which it no longer is:
// Q12 to Q16, FQ14, Q(14,3) and AQ13 each give, in the one serial pass,
// FromAdjacency's CSR for the u⊕m listing at exact capacity.
func TestFromXORCayleyChunked(t *testing.T) {
	var ds []XORCayley
	for n := 12; n <= 16; n++ {
		ds = append(ds, XORCayley{Bits: n, Masks: hyperMasks(n)})
	}
	ds = append(ds,
		XORCayley{Bits: 14, Masks: enhancedMasks(14, 14)},
		XORCayley{Bits: 13, Masks: augmentedMasks(13)},
		XORCayley{Bits: 14, Masks: enhancedMasks(14, 3)},
	)
	for _, d := range ds {
		g, err := FromXORCayley(d)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if ref := FromAdjacency(d.Order(), xorListing(d.Masks)); !sameCSR(g, ref) {
			t.Errorf("%v: CSR differs from FromAdjacency's", d)
		}
		if !exactCapacity(g) {
			t.Errorf("%v: target array has spare capacity", d)
		}
	}
}

// TestVerifyCayleyScansGeneratedGraphs pins that a graph FromXORCayley
// built accepts only its own mask set without a scan: every other
// descriptor is scanned and rejected exactly as on a listed graph, the
// graphs Remove and a partial Restore derive from it record no
// descriptor, and a full Restore gives back the graph itself.
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
	if partial := Restore(rr, nil, nil); partial.G.xor != nil {
		t.Fatal("a Restore with the edge still gone carried a recorded descriptor")
	}
	gr := Restore(rr, nil, [][2]int32{{0, 1}})
	if gr.G != q8 {
		t.Fatal("a full Restore did not give back the original graph")
	}
	if err := VerifyCayley(gr.G, XORCayley{Bits: 8, Masks: hyperMasks(8)}); err != nil {
		t.Fatalf("restored Q8 rejected: %v", err)
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
// Either both fail, or the build succeeds with the reference's CSR at
// exact capacity, verifies against its own descriptor, and a fresh
// build answers from its generator exactly as the reference table does
// (checkLazyAnswers) without writing its CSR.
func FuzzFromXORCayley(f *testing.F) {
	f.Fuzz(func(t *testing.T, bitsIn byte, data []byte) {
		d := decodeXORCayley(bitsIn, data)
		got, err := FromXORCayley(d)
		var ref *Graph
		msg := panicMessage(func() { ref = FromAdjacency(1<<uint(d.Bits), xorListing(d.Masks)) })
		refOK := msg == "" && VerifyCayley(ref, d) == nil
		switch {
		case (err == nil) != refOK:
			t.Fatalf("%v %v: FromXORCayley error %v, reference ok = %v (panic %q)", d, d.Masks, err, refOK, msg)
		case err != nil:
			return
		case !sameCSR(got, ref):
			t.Fatalf("%v %v: CSR differs from the reference", d, d.Masks)
		case !exactCapacity(got):
			t.Fatalf("%v %v: target array has spare capacity", d, d.Masks)
		}
		if err := VerifyCayley(got, d); err != nil {
			t.Fatalf("%v %v: generated graph rejects its own descriptor: %v", d, d.Masks, err)
		}
		lazy, _ := FromXORCayley(d)
		checkLazyAnswers(t, fmt.Sprint(d, d.Masks), lazy, ref, data)
	})
}

// checkLazyAnswers holds every answer a descriptor-backed graph gives
// from its generator to the table graph ref built from the same
// listing: order, size, degrees, edges, neighbourhoods, connectivity,
// and a removal of the nodes picks names (each byte an id mod n) plus
// one edge, with its partial and full restores. None of them may write
// the CSR.
func checkLazyAnswers(t *testing.T, name string, lazy, ref *Graph, picks []byte) {
	t.Helper()
	n, deg := ref.N(), ref.MaxDegree()
	if lazy.N() != n || lazy.M() != ref.M() || lazy.MaxDegree() != deg || lazy.MinDegree() != ref.MinDegree() ||
		!lazy.IsRegular(deg) || lazy.IsRegular(deg+1) || lazy.Connected() != ref.Connected() {
		t.Fatalf("%s: lazy N %d M %d Δ %d δ %d connected %v, table N %d M %d Δ %d δ %d connected %v", name,
			lazy.N(), lazy.M(), lazy.MaxDegree(), lazy.MinDegree(), lazy.Connected(),
			n, ref.M(), deg, ref.MinDegree(), ref.Connected())
	}
	var buf []int32
	for u := int32(0); int(u) < n; u++ {
		buf = lazy.AppendNeighbors(u, buf)
		if lazy.Degree(u) != ref.Degree(u) || !slices.Equal(buf, ref.Neighbors(u)) {
			t.Fatalf("%s: node %d: lazy degree %d, neighbours %v; table %d, %v", name, u, lazy.Degree(u), buf, ref.Degree(u), ref.Neighbors(u))
		}
		for k := int32(0); k < 8; k++ {
			if v := (u + k) % int32(n); lazy.HasEdge(u, v) != ref.HasEdge(u, v) {
				t.Fatalf("%s: HasEdge(%d, %d) = %v, table %v", name, u, v, lazy.HasEdge(u, v), ref.HasEdge(u, v))
			}
		}
		for _, v := range ref.Neighbors(u) {
			if !lazy.HasEdge(u, v) {
				t.Fatalf("%s: HasEdge(%d, %d) = false on a table edge", name, u, v)
			}
		}
	}

	var nodes []int32
	for _, b := range picks[:min(len(picks), 6)] {
		nodes = append(nodes, int32(b)%int32(n))
	}
	edges := [][2]int32{{0, ref.Neighbors(0)[0]}}
	rl, rt := lazy.Remove(nodes, edges), ref.Remove(nodes, edges)
	pl, pt := Restore(rl, nodes, nil), Restore(rt, nodes, nil)
	fl, ft := Restore(rl, nodes, edges), Restore(rt, nodes, edges)
	if lazy.Materialized() {
		t.Fatalf("%s: answering from the generator wrote the CSR", name)
	}
	if !sameRemoval(rl, rt) || rl.G.xor != nil || !exactCapacity(rl.G) {
		t.Fatalf("%s: removal of %v and %v differs from the table's", name, nodes, edges)
	}
	for _, c := range []struct {
		what     string
		lazy, tb *Growth
	}{{"partial", pl, pt}, {"full", fl, ft}} {
		l, r := c.lazy, c.tb
		if !sameCSR(l.G, r.G) || !slices.Equal(l.OldToNew, r.OldToNew) || !slices.Equal(l.NewToOld, r.NewToOld) ||
			!slices.Equal(l.SurvivorToNew, r.SurvivorToNew) || l.Readmitted != r.Readmitted || l.Reconnected != r.Reconnected ||
			l.StillGone != r.StillGone || l.RestoredEdges != r.RestoredEdges || !sameRemoval(l.Remaining, r.Remaining) {
			t.Fatalf("%s: %s restore differs from the table's", name, c.what)
		}
	}
	if ref.Connected() && (fl.G != lazy || ft.G != ref) {
		t.Fatalf("%s: a full restore of a connected graph did not give back the graph itself", name)
	}
}

// sameRemoval reports whether two removals keep the same CSR through
// the same id maps with the same census.
func sameRemoval(a, b *Removal) bool {
	return sameCSR(a.G, b.G) && slices.Equal(a.OldToNew, b.OldToNew) && slices.Equal(a.NewToOld, b.NewToOld) &&
		a.RemovedNodes == b.RemovedNodes && a.RemovedEdges == b.RemovedEdges && a.Stranded == b.Stranded &&
		slices.Equal(a.GoneEdges, b.GoneEdges)
}

// TestNeighborsConcurrentFirstRead races the first readers of a
// descriptor-backed graph's CSR: eight goroutines read Neighbors,
// Adjacency and Validate at once, and every one must see the CSR the
// table build gives, written once.
func TestNeighborsConcurrentFirstRead(t *testing.T) {
	d := XORCayley{Bits: 13, Masks: augmentedMasks(13)}
	ref := FromAdjacency(d.Order(), xorListing(d.Masks))
	g, err := FromXORCayley(d)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	targets := make([][]int32, 8)
	for i := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			u := int32(i * 1000)
			if !slices.Equal(g.Neighbors(u), ref.Neighbors(u)) {
				t.Errorf("reader %d: neighbours of %d differ from the table's", i, u)
			}
			if i%2 == 0 {
				if err := g.Validate(); err != nil {
					t.Errorf("reader %d: %v", i, err)
				}
			}
			_, targets[i] = g.Adjacency()
		}()
	}
	close(start)
	wg.Wait()
	for i, tg := range targets {
		if &tg[0] != &targets[0][0] {
			t.Fatalf("reader %d saw a second CSR", i)
		}
	}
	if !g.Materialized() || !sameCSR(g, ref) {
		t.Fatal("the CSR the readers raced to write is not the table build's")
	}
}

// TestXORBlockErrorNamesFirstNode runs the CSR write on mask tables
// that fail some nodes: the build returns the error of the lowest
// failing node. A table missing one mask fails every node, so the
// error names node 0. A ±1-per-digit torus's neighbours differ from u
// by node-dependent XORs, so a table of only the differences its lower
// half meets passes the lower half and fails a node past it.
func TestXORBlockErrorNamesFirstNode(t *testing.T) {
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
		switch _, _, err := buildXORCSR(c.ca, c.isMask); {
		case err == nil:
			t.Errorf("%s: built a CSR", c.name)
		case !strings.Contains(err.Error(), fmt.Sprintf("of node %d ", first)):
			t.Errorf("%s: error %q does not name node %d", c.name, err, first)
		}
	}
}
