package topology

import (
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

// builderCSR is the reference construction: the family's own adjacency
// callback fed edge by edge through graph.Builder.
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

// TestFamilyCSRMatchesBuilder pins that the one-pass FromAdjacency build
// of every family is field-for-field the CSR the edge-list Builder makes
// from the same adjacency, and that both hold their arcs at exact
// capacity.
func TestFamilyCSRMatchesBuilder(t *testing.T) {
	parseWith := func(spec string, build func(int, func([]int32, int32) []int32) *graph.Graph) *graph.Graph {
		t.Helper()
		saved := buildCSR
		buildCSR = build
		defer func() { buildCSR = saved }()
		nw, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return nw.Graph()
	}
	for _, spec := range csrSpecs {
		got := parseWith(spec, graph.FromAdjacency)
		want := parseWith(spec, builderCSR)
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
			t.Errorf("%s: len/cap(targets) = %d/%d one-pass, %d/%d Builder; want exact", spec, len(gTgt), cap(gTgt), len(wTgt), cap(wTgt))
		}
	}
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
