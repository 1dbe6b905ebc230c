package topology

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"comparisondiag/internal/graph"
)

// csrSpecs is one small valid instance of every Parse family.
var csrSpecs = []string{
	"q:6", "cq:7", "tq:7", "fq:6", "eq:6,3", "aq:6", "sq:6", "tnq:6",
	"kary:4,3", "akary:4,3", "star:5", "nkstar:5,3", "pancake:5", "arr:5,3",
}

// builderCSR is the reference construction: an adjacency listing fed
// edge by edge through graph.Builder.
func builderCSR(n int, appendNeighbors func(dst []int32, u int32) []int32) *graph.Graph {
	b := graph.NewBuilder(n)
	var buf []int32
	for u := int32(0); int(u) < n; u++ {
		buf = appendNeighbors(buf[:0], u)
		for _, v := range buf {
			b.MustAddEdge(u, v)
		}
	}
	return b.Build()
}

// xorFamilyListing returns the paper's definition of a binary-cube
// family's adjacency, neighbour by neighbour, for the four families
// whose CSR is built from their generator set (graph.FromXORCayley):
// the independent reference that CSR is checked against. It reports
// false for every other family.
func xorFamilyListing(nw Network) (func(dst []int32, u int32) []int32, bool) {
	var n int
	var extra []int32 // the multi-bit masks beside the single bits
	switch x := nw.(type) {
	case *Hypercube:
		n = x.n
	case *FoldedHypercube:
		// Q_n plus the complement edge u ~ ū.
		n, extra = x.n, []int32{1<<uint(x.n) - 1}
	case *EnhancedHypercube:
		// Q_n plus the edge flipping the f high bits.
		n, extra = x.n, []int32{(1<<uint(x.f) - 1) << uint(x.n-x.f)}
	case *AugmentedCube:
		// Q_n plus the suffix complements u ~ u ⊕ (2^{i+1} - 1).
		n = x.n
		for i := 1; i < n; i++ {
			extra = append(extra, 1<<uint(i+1)-1)
		}
	default:
		return nil, false
	}
	return func(dst []int32, u int32) []int32 {
		for b := 0; b < n; b++ {
			dst = append(dst, u^int32(1<<uint(b)))
		}
		for _, m := range extra {
			dst = append(dst, u^m)
		}
		return dst
	}, true
}

// csrCheckSpecs is csrSpecs plus every small instance of the four
// descriptor-built families: Q_n, FQ_n and AQ_n for 2 ≤ n ≤ 12 and
// Q_{n,f} for 2 ≤ f ≤ n ≤ 8.
func csrCheckSpecs() []string {
	specs := slices.Clone(csrSpecs)
	for n := 2; n <= 12; n++ {
		specs = append(specs, fmt.Sprintf("q:%d", n), fmt.Sprintf("fq:%d", n), fmt.Sprintf("aq:%d", n))
	}
	for n := 2; n <= 8; n++ {
		for f := 2; f <= n; f++ {
			specs = append(specs, fmt.Sprintf("eq:%d,%d", n, f))
		}
	}
	return specs
}

// TestFamilyCSRMatchesBuilder pins that every family's production CSR
// is field for field the one the edge-list Builder makes, and that both
// hold their arcs at exact capacity. The Builder is fed the paper's
// listing for the descriptor-built families, and the family's own
// adjacency callback (swapped in for buildCSR) for the others.
func TestFamilyCSRMatchesBuilder(t *testing.T) {
	for _, spec := range csrCheckSpecs() {
		nw, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		got := nw.Graph()
		var want *graph.Graph
		if listing, ok := xorFamilyListing(nw); ok {
			want = builderCSR(got.N(), listing)
		} else {
			want = parseWithBuilder(t, spec)
		}
		gOff, gTgt := got.Adjacency()
		wOff, wTgt := want.Adjacency()
		switch {
		case got.N() != want.N() || got.M() != want.M():
			t.Errorf("%s: N, M = %d, %d; Builder gives %d, %d", spec, got.N(), got.M(), want.N(), want.M())
		case !slices.Equal(gOff, wOff):
			t.Errorf("%s: offsets differ from the Builder reference", spec)
		case !slices.Equal(gTgt, wTgt):
			t.Errorf("%s: targets differ from the Builder reference", spec)
		}
		if cap(gTgt) != len(gTgt) || cap(wTgt) != len(wTgt) {
			t.Errorf("%s: len/cap(targets) = %d/%d production, %d/%d Builder; want exact", spec, len(gTgt), cap(gTgt), len(wTgt), cap(wTgt))
		}
	}
}

// parseWithBuilder parses spec with builderCSR in place of buildCSR, so
// the family's own adjacency callback goes through graph.Builder.
func parseWithBuilder(t *testing.T, spec string) *graph.Graph {
	t.Helper()
	saved := buildCSR
	buildCSR = builderCSR
	defer func() { buildCSR = saved }()
	nw, err := Parse(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return nw.Graph()
}

// TestParseRefusesInt32Overflow pins that families too large for an
// int32 CSR are refused quickly, before the graph is allocated.
func TestParseRefusesInt32Overflow(t *testing.T) {
	for _, spec := range []string{"q:27", "q:40", "q:64", "fq:31", "kary:3,19", "kary:3,40", "akary:3,25"} {
		start := time.Now()
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("%s: expected an error", spec)
			continue
		}
		if !strings.Contains(err.Error(), "int32") {
			t.Errorf("%s: error %q does not name the int32 limit", spec, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refusal took %v", spec, d)
		}
	}
}

// TestPaddedPartsReadNoCSR pins that the padding walk (padParts) reads
// a descriptor-built family's neighbourhoods from its generator set:
// after Parts at every bound 1..δ+1 of instances that reach some levels
// only by padding (or not at all), the graph has written no CSR, and
// every partition, or refusal, is element for element what the same
// walk over the Builder's CSR table of the family gives.
func TestPaddedPartsReadNoCSR(t *testing.T) {
	for _, spec := range []string{"q:5", "q:7", "fq:7", "aq:9", "eq:7,4"} {
		nw, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		g := nw.Graph()
		listing, _ := xorFamilyListing(nw)
		table := builderCSR(g.N(), listing)
		n := bits.Len(uint(g.N())) - 1
		for bound := 1; bound <= nw.Diagnosability(); bound++ {
			got, gotErr := nw.Parts(bound+1, bound+1)
			want, wantErr := binaryCubeParts(table, n, 2, bound+1, bound+1)
			if !reflect.DeepEqual(got, want) || gotErr != wantErr {
				t.Fatalf("%s bound %d: %d parts (%v), table walk %d parts (%v)", spec, bound, len(got), gotErr, len(want), wantErr)
			}
		}
		if g.Materialized() {
			t.Errorf("%s: Parts wrote the CSR", spec)
		}
	}
}
