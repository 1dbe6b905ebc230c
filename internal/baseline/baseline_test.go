package baseline

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

func TestGrayCycleProperties(t *testing.T) {
	for m := 2; m <= 6; m++ {
		seq := GrayCycle(m)
		if len(seq) != 1<<uint(m) {
			t.Fatalf("m=%d: length %d", m, len(seq))
		}
		seen := map[int32]bool{}
		for i, v := range seq {
			if seen[v] {
				t.Fatalf("m=%d: duplicate %d", m, v)
			}
			seen[v] = true
			next := seq[(i+1)%len(seq)]
			if bits.OnesCount32(uint32(v^next)) != 1 {
				t.Fatalf("m=%d: %d -> %d not a hypercube step", m, v, next)
			}
		}
	}
}

// TestFigure1Decomposition reproduces the structure of the paper's
// Fig. 1: node-disjoint cycles joined pairwise by perfect matchings in
// the shape of a smaller hypercube.
func TestFigure1Decomposition(t *testing.T) {
	q := topology.NewHypercube(5)
	g := q.Graph()
	dec, err := NewCycleDecomposition(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Cycles) != 4 {
		t.Fatalf("expected 4 cycles, got %d", len(dec.Cycles))
	}
	seen := bitset.New(g.N())
	for _, cyc := range dec.Cycles {
		for i, u := range cyc {
			if seen.Contains(int(u)) {
				t.Fatalf("node %d in two cycles", u)
			}
			seen.Add(int(u))
			v := cyc[(i+1)%len(cyc)]
			if !g.HasEdge(u, v) {
				t.Fatalf("cycle step %d-%d not an edge of Q5", u, v)
			}
		}
	}
	if seen.Count() != g.N() {
		t.Fatalf("cycles cover %d of %d nodes", seen.Count(), g.N())
	}
	// Matchings exist exactly between subcubes adjacent in Q_{n-m}
	// (here Q2: 0-1, 0-2, 1-3, 2-3) and consist of real edges.
	if dec.Matching(0, 3) != nil || dec.Matching(1, 2) != nil {
		t.Fatal("non-adjacent subcubes must not be matched")
	}
	matched := 0
	for c1 := 0; c1 < 4; c1++ {
		for c2 := c1 + 1; c2 < 4; c2++ {
			m := dec.Matching(c1, c2)
			if m == nil {
				continue
			}
			matched++
			ends := bitset.New(g.N())
			for _, e := range m {
				if !g.HasEdge(e[0], e[1]) {
					t.Fatalf("matching pair %v not an edge", e)
				}
				if ends.Contains(int(e[0])) || ends.Contains(int(e[1])) {
					t.Fatalf("matching reuses a node: %v", e)
				}
				ends.Add(int(e[0]))
				ends.Add(int(e[1]))
			}
			if len(m) != 8 {
				t.Fatalf("matching between Q3 cycles should have 8 edges, got %d", len(m))
			}
		}
	}
	if matched != 4 { // Q2 has 4 edges — the "cycle of cycles" of Fig. 1
		t.Fatalf("expected 4 matchings, got %d", matched)
	}
}

func TestYangDiagnoseCorrectness(t *testing.T) {
	q := topology.NewHypercube(7)
	g := q.Graph()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(8), rng)
		for _, b := range syndrome.AllBehaviors(7) {
			s := syndrome.NewLazy(F, b)
			got, stats, err := YangDiagnose(q, s)
			if err != nil {
				t.Fatalf("behaviour %s: %v", b.Name(), err)
			}
			if !got.Equal(F) {
				t.Fatalf("behaviour %s: got %v want %v", b.Name(), got, F)
			}
			if stats.Lookups == 0 {
				t.Fatal("stats did not record look-ups")
			}
		}
	}
}

func TestYangDiagnoseMaxFaults(t *testing.T) {
	q := topology.NewHypercube(8)
	g := q.Graph()
	F := syndrome.NeighborhoodFaults(g, 100, 8)
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	got, _, err := YangDiagnose(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(F) {
		t.Fatalf("got %v want %v", got, F)
	}
}

func TestYangRejectsTooSmallCube(t *testing.T) {
	q := topology.NewHypercube(5)
	s := syndrome.NewLazy(bitset.New(32), nil)
	if _, _, err := YangDiagnose(q, s); err == nil {
		t.Fatal("Q5 has too few long cycles for Yang's decomposition; expected error")
	}
}

// TestFigure2ExtendedStar reproduces the paper's Fig. 2 structure.
func TestFigure2ExtendedStar(t *testing.T) {
	q := topology.NewHypercube(6)
	g := q.Graph()
	for _, x := range []int32{0, 17, 63} {
		es, err := HypercubeExtendedStar(6, x)
		if err != nil {
			t.Fatal(err)
		}
		if len(es.Branches) != 6 {
			t.Fatalf("want 6 branches, got %d", len(es.Branches))
		}
		used := bitset.New(g.N())
		used.Add(int(x))
		for _, br := range es.Branches {
			prev := x
			for _, v := range br {
				if !g.HasEdge(prev, v) {
					t.Fatalf("branch step %d-%d not an edge", prev, v)
				}
				if used.Contains(int(v)) {
					t.Fatalf("branches share node %d", v)
				}
				used.Add(int(v))
				prev = v
			}
		}
	}
}

func TestFindExtendedStarGeneric(t *testing.T) {
	for _, nw := range []topology.Network{
		topology.NewHypercube(5),
		topology.NewStar(5),
		topology.NewPancake(5),
	} {
		g := nw.Graph()
		want := nw.Diagnosability()
		for _, x := range []int32{0, int32(g.N() / 2), int32(g.N() - 1)} {
			es, err := FindExtendedStar(g, x, want)
			if err != nil {
				t.Fatalf("%s node %d: %v", nw.Name(), x, err)
			}
			used := bitset.New(g.N())
			used.Add(int(x))
			for _, br := range es.Branches {
				prev := x
				for _, v := range br {
					if !g.HasEdge(prev, v) || used.Contains(int(v)) {
						t.Fatalf("%s: invalid branch at %d", nw.Name(), x)
					}
					used.Add(int(v))
					prev = v
				}
			}
		}
	}
}

func TestCTDiagnoseHypercube(t *testing.T) {
	q := topology.NewHypercube(6)
	g := q.Graph()
	starAt := func(x int32) (*ExtendedStar, error) { return HypercubeExtendedStar(6, x) }
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(7), rng)
		for _, b := range syndrome.AllBehaviors(uint64(trial)) {
			s := syndrome.NewLazy(F, b)
			got, stats, err := CTDiagnose(g, s, starAt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(F) {
				t.Fatalf("behaviour %s: got %v want %v (F size %d)", b.Name(), got, F, F.Count())
			}
			if stats.TableEntries != syndrome.TableSize(g) {
				t.Fatal("CT must consume the full syndrome table")
			}
		}
	}
}

func TestCTDiagnoseStarGraph(t *testing.T) {
	st := topology.NewStar(5)
	g := st.Graph()
	delta := st.Diagnosability() // 4
	starCache := make(map[int32]*ExtendedStar)
	starAt := func(x int32) (*ExtendedStar, error) {
		if es, ok := starCache[x]; ok {
			return es, nil
		}
		es, err := FindExtendedStar(g, x, delta)
		if err == nil {
			starCache[x] = es
		}
		return es, err
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(delta+1), rng)
		s := syndrome.NewLazy(F, syndrome.Mimic{})
		got, _, err := CTDiagnose(g, s, starAt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(F) {
			t.Fatalf("got %v want %v", got, F)
		}
	}
}

func TestIndistinguishableClassicPair(t *testing.T) {
	// The Section 2 argument: F1 = N(u) and F2 = N(u) ∪ {u} admit a
	// common syndrome.
	q := topology.NewHypercube(4)
	adj, err := adjMasks(q.Graph())
	if err != nil {
		t.Fatal(err)
	}
	var f1 uint64
	for _, v := range q.Graph().Neighbors(0) {
		f1 |= 1 << uint(v)
	}
	f2 := f1 | 1 // add node 0
	if !Indistinguishable(adj, f1, f2) {
		t.Fatal("N(0) and N(0)∪{0} must be indistinguishable")
	}
	if Indistinguishable(adj, 1<<1, 1<<2) {
		t.Fatal("two distinct singletons in Q4 must be distinguishable")
	}
}

// smallOrder is the node count of spec family fam at arguments args —
// a formula, so the sweep below never builds a large instance — or -1
// for a family it does not know. Results above 64 are reported as 65.
func smallOrder(fam string, args []int) int {
	pow := func(b, e int) int {
		r := 1
		for ; e > 0 && r <= 64; e-- {
			r *= b
		}
		return min(r, 65)
	}
	falling := func(n, k int) int { // n!/(n-k)!
		r := 1
		for i := 0; i < k && r <= 64; i++ {
			r *= n - i
		}
		return min(r, 65)
	}
	switch fam {
	case "q", "cq", "tq", "fq", "aq", "sq", "tnq", "eq":
		return pow(2, args[0])
	case "kary", "akary":
		return pow(args[0], args[1])
	case "star", "pancake":
		return falling(args[0], args[0])
	case "nkstar", "arr":
		return falling(args[0], args[1])
	}
	return -1
}

// TestSmallInstanceDiagnosability sweeps every catalog family at every
// parameter Parse accepts with at most 16 nodes and proves the δ each
// declares: every pair of distinct fault sets of at most δ faults is
// distinguishable, found by exhaustive search, and the search returns a
// real indistinguishable pair of size δ+1. Below the formula ranges the
// declared δ is this exhaustive value (Q_2, CQ_3, FQ_3, AQ_3, the short
// cycles Q^k_1 and S_3, and so on).
func TestSmallInstanceDiagnosability(t *testing.T) {
	checked := 0
	for _, fam := range topology.Catalog() {
		arity := 1 + strings.Count(fam.Example, ",")
		if smallOrder(fam.Spec, make([]int, 2)) < 0 {
			t.Fatalf("family %q has no node-count formula", fam.Spec)
		}
		for a := 1; a <= 16; a++ {
			for b := 1; b <= 16; b++ {
				if arity == 1 && b > 1 {
					break
				}
				args := []int{a, b}[:arity]
				if smallOrder(fam.Spec, args) > 16 {
					continue
				}
				spec := fmt.Sprintf("%s:%d", fam.Spec, a)
				if arity == 2 {
					spec += fmt.Sprintf(",%d", b)
				}
				nw, err := topology.Parse(spec)
				if err != nil {
					continue // a parameter the family does not accept
				}
				g := nw.Graph()
				if g.N() != smallOrder(fam.Spec, args) {
					t.Fatalf("%s: %d nodes, formula %d", spec, g.N(), smallOrder(fam.Spec, args))
				}
				delta := nw.Diagnosability()
				res, err := Diagnosability(g, delta+1)
				if err != nil {
					t.Fatal(err)
				}
				if res.Delta != delta {
					t.Errorf("%s: exhaustive δ = %d (searched to %d), declared %d", spec, res.Delta, delta+1, delta)
					continue
				}
				adj, _ := adjMasks(g)
				w1, w2 := res.Witness1, res.Witness2
				if w1 == w2 || !Indistinguishable(adj, w1, w2) || max(bits.OnesCount64(w1), bits.OnesCount64(w2)) != delta+1 {
					t.Errorf("%s: witness %#x / %#x is not an indistinguishable pair of size δ+1", spec, w1, w2)
				}
				checked++
			}
		}
	}
	// q:2-4, cq:2-4, tq:3, fq:2-4, eq (6), aq:2-4, sq:2, tnq:2-4,
	// kary:3..16,1 + 3,2 + 4,2, akary:3,2 + 4,2, star:3, nkstar:3,2 +
	// 4,2, pancake:3, arr:n,1 for 3 ≤ n ≤ 12 + 3,2 + 4,2.
	if want := 3 + 3 + 1 + 3 + 6 + 3 + 1 + 3 + 16 + 2 + 1 + 2 + 1 + 12; checked != want {
		t.Fatalf("swept %d instances, want %d", checked, want)
	}
}

func TestDiagnosabilityKnownValues(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive diagnosability is slow")
	}
	cases := []struct {
		nw   topology.Network
		tMax int
		want int
	}{
		{topology.NewHypercube(4), 5, 4},   // [6]: 4-regular, κ=4, N=16 ≥ 11
		{topology.NewCrossedCube(4), 5, 4}, // [14]
		{topology.NewStar(4), 4, 3},        // [28]
		{topology.NewPancake(4), 4, 3},     // [6]
	}
	for _, c := range cases {
		c := c
		t.Run(c.nw.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := Diagnosability(c.nw.Graph(), c.tMax)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delta != c.want {
				t.Fatalf("computed δ = %d, literature says %d (witness %#x/%#x)",
					res.Delta, c.want, res.Witness1, res.Witness2)
			}
		})
	}
}

func TestDiagnosabilityWitnessIsValid(t *testing.T) {
	// Q3 is below the [6] threshold (N = 8 < 2n+3 = 9); whatever δ the
	// search returns, its witness pair must be genuinely
	// indistinguishable and of size δ+1.
	q := topology.NewHypercube(3)
	res, err := Diagnosability(q.Graph(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta >= 3 {
		t.Fatalf("δ(Q3) = %d; cannot be ≥ min degree", res.Delta)
	}
	adj, _ := adjMasks(q.Graph())
	if !Indistinguishable(adj, res.Witness1, res.Witness2) {
		t.Fatal("witness pair is distinguishable")
	}
	if res.Witness1 == res.Witness2 {
		t.Fatal("witness pair must be distinct")
	}
	max := bits.OnesCount64(res.Witness1)
	if c := bits.OnesCount64(res.Witness2); c > max {
		max = c
	}
	if max != res.Delta+1 {
		t.Fatalf("witness max size %d, want δ+1 = %d", max, res.Delta+1)
	}
}

func TestBruteDiagnoseMatchesTruth(t *testing.T) {
	q := topology.NewHypercube(4)
	g := q.Graph()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(5), rng)
		for _, b := range syndrome.AllBehaviors(uint64(trial)) {
			s := syndrome.NewLazy(F, b)
			got, err := BruteDiagnose(g, s, 4)
			if err != nil {
				t.Fatalf("behaviour %s: %v", b.Name(), err)
			}
			if !got.Equal(F) {
				t.Fatalf("behaviour %s: got %v want %v", b.Name(), got, F)
			}
		}
	}
}

func TestBruteDiagnoseDetectsAmbiguity(t *testing.T) {
	// With the bound lifted to δ+1, the classic pair N(u) vs N(u)∪{u}
	// both fit, and the reference must refuse to pick one.
	q := topology.NewHypercube(4)
	g := q.Graph()
	F := syndrome.NeighborhoodFaults(g, 0, 4)
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	_, err := BruteDiagnose(g, s, 5)
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("expected ErrAmbiguous, got %v", err)
	}
}

func TestSubsetsOfSize(t *testing.T) {
	got := subsetsOfSize(4, 2)
	if len(got) != 6 {
		t.Fatalf("C(4,2) = 6, got %d", len(got))
	}
	for i, m := range got {
		if bits.OnesCount64(m) != 2 {
			t.Fatalf("mask %#x has wrong popcount", m)
		}
		if i > 0 && got[i-1] >= m {
			t.Fatal("masks not ascending")
		}
	}
	if len(subsetsOfSize(3, 5)) != 0 {
		t.Fatal("oversized subsets must be empty")
	}
	if len(subsetsOfSize(5, 0)) != 1 {
		t.Fatal("the empty subset")
	}
}
