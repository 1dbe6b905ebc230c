package topology

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"comparisondiag/internal/graph"
)

// declaredFamilies returns every declared-Cayley instance the coset
// tests compare against its own CSR-derived partition. Sizes are chosen
// so the family's Parts succeeds without padding at the quoted request
// (range partitions only) — padding is a graph-walking repair the
// descriptor path deliberately does not reproduce.
func declaredFamilies() []CayleyStructured {
	return []CayleyStructured{
		NewHypercube(8),
		NewFoldedHypercube(6),
		NewEnhancedHypercube(7, 3),
		NewAugmentedCube(5),
		NewKAryNCube(4, 4),
		NewAugmentedKAryNCube(4, 4),
	}
}

// TestCayleyAdjacencyMatchesFamilies pins the implicit adjacency against
// the family constructors' independently built CSR graphs: for every
// declared instance, every node's generated neighbour list must equal
// the materialised one.
func TestCayleyAdjacencyMatchesFamilies(t *testing.T) {
	for _, nw := range declaredFamilies() {
		t.Run(nw.Name(), func(t *testing.T) {
			desc := nw.CayleyStructure()
			if desc == nil {
				t.Fatalf("%s declares no descriptor", nw.Name())
			}
			ca, err := graph.NewCayleyAdjacency(desc)
			if err != nil {
				t.Fatal(err)
			}
			g := nw.Graph()
			if ca.N() != g.N() {
				t.Fatalf("order %d, graph has %d nodes", ca.N(), g.N())
			}
			var buf []int32
			for u := int32(0); int(u) < g.N(); u++ {
				buf = ca.AppendNeighbors(u, buf)
				if !slices.Equal(buf, g.Neighbors(u)) {
					t.Fatalf("node %d: implicit %v, family CSR %v", u, buf, g.Neighbors(u))
				}
			}
		})
	}
}

// parsedDeclaredFamilies parses every declared-Cayley instance the
// parser accepts with at most 2^14 nodes: q, fq and aq at n = 2..14,
// eq:n,f at every 2 ≤ f ≤ n, and kary:k,n and akary:k,n (n ≥ 2) at
// every k ≥ 3 with k^n ≤ 2^14. The k-cycles kary:k,1 stop at k = 64,
// which spans their three diagnosabilities (0, 1 and 2): one digit
// gives neither partition path a level below the whole graph at any k,
// and the 16,320 longer cycles would take seconds to build.
func parsedDeclaredFamilies(t *testing.T) []CayleyStructured {
	t.Helper()
	const maxNodes, maxCycle = 1 << 14, 64
	var specs []string
	for n := 2; n <= 14; n++ {
		specs = append(specs, fmt.Sprintf("q:%d", n), fmt.Sprintf("fq:%d", n), fmt.Sprintf("aq:%d", n))
		for f := 2; f <= n; f++ {
			specs = append(specs, fmt.Sprintf("eq:%d,%d", n, f))
		}
	}
	for k := 3; k <= maxNodes; k++ {
		if k <= maxCycle {
			specs = append(specs, fmt.Sprintf("kary:%d,1", k))
		}
		for n := 2; pow(k, n) <= maxNodes; n++ {
			specs = append(specs, fmt.Sprintf("kary:%d,%d", k, n), fmt.Sprintf("akary:%d,%d", k, n))
		}
	}
	nws := make([]CayleyStructured, len(specs))
	for i, spec := range specs {
		nw, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		cs, ok := nw.(CayleyStructured)
		if !ok || cs.CayleyStructure() == nil {
			t.Fatalf("%s declares no descriptor", spec)
		}
		nws[i] = cs
	}
	return nws
}

// TestCayleyPartsMatchesFamilyParts pins the Theorem 1 partition derived
// from the coset structure against the family's own Parts, for every
// declared instance the parser accepts up to 2^14 nodes, across the
// request range an engine actually issues (every tightened bound from 1
// up to δ+1): part-for-part identical node ranges and seeds whenever
// both succeed. The descriptor may refuse, with ErrNoPartition, only
// where the family refuses too or pads, donating nodes between parts
// so that its parts no longer cover the graph; it never refuses a level
// the family fills outright.
func TestCayleyPartsMatchesFamilyParts(t *testing.T) {
	for _, nw := range parsedDeclaredFamilies(t) {
		t.Run(nw.Name(), func(t *testing.T) {
			desc := nw.CayleyStructure()
			for bound := 1; bound <= nw.Diagnosability()+1; bound++ {
				want, wantErr := nw.Parts(bound, bound)
				got, gotErr := CayleyParts(desc, bound, bound)
				if wantErr != nil {
					if gotErr == nil {
						t.Fatalf("bound %d: family refused (%v), descriptor produced %d parts", bound, wantErr, len(got))
					}
					continue
				}
				if gotErr != nil {
					if !errors.Is(gotErr, ErrNoPartition) {
						t.Fatalf("bound %d: unexpected error %v", bound, gotErr)
					}
					if isLevel(want, nw.Graph().N()) {
						t.Fatalf("bound %d: descriptor refused a level the family fills without padding", bound)
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("bound %d: %d parts from descriptor, %d from family", bound, len(got), len(want))
				}
				for i := range want {
					if got[i].Seed != want[i].Seed || !slices.Equal(got[i].Nodes, want[i].Nodes) {
						t.Fatalf("bound %d part %d: descriptor (seed %d, %d nodes) differs from family (seed %d, %d nodes)",
							bound, i, got[i].Seed, len(got[i].Nodes), want[i].Seed, len(want[i].Nodes))
					}
				}
			}
		})
	}
}

// isLevel reports whether parts are one granularity level: the n node
// ids cut into contiguous equal ranges, as rangeParts builds them. A
// padded partition is not, because padding donates nodes between parts.
func isLevel(parts []Part, n int) bool {
	size := len(parts[0].Nodes)
	if size*len(parts) != n {
		return false
	}
	for i, p := range parts {
		for j, u := range p.Nodes {
			if int(u) != i*size+j {
				return false
			}
		}
	}
	return true
}

// TestCayleyCandidatesArePartsPrefix pins the candidate-only build an
// implicit engine binds against the full reference partition: for every
// declared family and every request an engine issues, CayleyCandidates
// returns exactly the first minCount parts of CayleyParts (seeds, node
// ranges and capacity-capped node slices alike), and refuses exactly
// when CayleyParts refuses.
func TestCayleyCandidatesArePartsPrefix(t *testing.T) {
	families := declaredFamilies()
	for n := 2; n <= 12; n++ {
		families = append(families, NewHypercube(n))
	}
	for _, nw := range families {
		t.Run(nw.Name(), func(t *testing.T) {
			desc := nw.CayleyStructure()
			for bound := 1; bound <= nw.Diagnosability()+1; bound++ {
				want, wantErr := CayleyParts(desc, bound, bound)
				got, gotErr := CayleyCandidates(desc, bound, bound)
				if (wantErr == nil) != (gotErr == nil) || (gotErr != nil && !errors.Is(gotErr, ErrNoPartition)) {
					t.Fatalf("bound %d: candidates err %v, parts err %v", bound, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if len(got) != bound {
					t.Fatalf("bound %d: %d candidates, want %d", bound, len(got), bound)
				}
				for i := range got {
					if got[i].Seed != want[i].Seed || !slices.Equal(got[i].Nodes, want[i].Nodes) || cap(got[i].Nodes) != len(got[i].Nodes) {
						t.Fatalf("bound %d: candidate %d (seed %d, %d nodes) differs from part (seed %d, %d nodes)",
							bound, i, got[i].Seed, len(got[i].Nodes), want[i].Seed, len(want[i].Nodes))
					}
				}
			}
		})
	}
}

// TestCayleyPartsRefusals pins the error paths: undeclared descriptor
// kinds and impossible requests return ErrNoPartition.
func TestCayleyPartsRefusals(t *testing.T) {
	if _, err := CayleyParts(nil, 2, 2); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("nil descriptor: %v", err)
	}
	if _, err := CayleyCandidates(nil, 2, 2); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("nil descriptor, candidates: %v", err)
	}
	// A request larger than any coset level can serve.
	desc := NewHypercube(6).CayleyStructure()
	if _, err := CayleyParts(desc, 1<<6, 2); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("oversized request: %v", err)
	}
}
