package syndrome

import (
	"math/rand"
	"sync"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
)

// ringGraph returns C_n, enough structure for syndrome tests.
func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// k4 returns the complete graph on 4 nodes (degree 3, so testers have
// three distinct pairs).
func k4() *graph.Graph {
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.MustAddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func TestHealthyTesterTruth(t *testing.T) {
	f := bitset.FromMembers(4, []int32{2})
	s := NewLazy(f, AllZero{})
	// 0 is healthy; 1 and 3 healthy => 0; pair containing 2 => 1.
	if got := s.Test(0, 1, 3); got != 0 {
		t.Fatalf("s_0(1,3) = %d, want 0", got)
	}
	if got := s.Test(0, 1, 2); got != 1 {
		t.Fatalf("s_0(1,2) = %d, want 1", got)
	}
	if got := s.Test(0, 2, 3); got != 1 {
		t.Fatalf("s_0(2,3) = %d, want 1", got)
	}
}

func TestTestSymmetry(t *testing.T) {
	f := bitset.FromMembers(4, []int32{1, 2})
	for _, b := range AllBehaviors(7) {
		s := NewLazy(f, b)
		if s.Test(1, 0, 3) != s.Test(1, 3, 0) {
			t.Fatalf("behaviour %s: result not symmetric in (v,w)", b.Name())
		}
		if s.Test(2, 0, 3) != s.Test(2, 3, 0) {
			t.Fatalf("behaviour %s: faulty tester result not symmetric", b.Name())
		}
	}
}

func TestFaultyTesterBehaviours(t *testing.T) {
	f := bitset.FromMembers(4, []int32{0}) // tester 0 is faulty
	if got := NewLazy(f, AllZero{}).Test(0, 1, 2); got != 0 {
		t.Fatalf("all-zero: got %d", got)
	}
	if got := NewLazy(f, AllOne{}).Test(0, 1, 2); got != 1 {
		t.Fatalf("all-one: got %d", got)
	}
	// Mimic: truth for healthy 1,2 is 0.
	if got := NewLazy(f, Mimic{}).Test(0, 1, 2); got != 0 {
		t.Fatalf("mimic: got %d", got)
	}
	// Inverted flips the truth.
	if got := NewLazy(f, Inverted{}).Test(0, 1, 2); got != 1 {
		t.Fatalf("inverted: got %d", got)
	}
}

func TestRandomBehaviourDeterministic(t *testing.T) {
	f := bitset.FromMembers(8, []int32{3})
	a := NewLazy(f, Random{Seed: 99})
	b := NewLazy(f, Random{Seed: 99})
	for i := 0; i < 50; i++ {
		u, v, w := int32(3), int32(i%8), int32((i+1)%8)
		if v == u || w == u || v == w {
			continue
		}
		if a.Test(u, v, w) != b.Test(u, v, w) {
			t.Fatal("random behaviour not deterministic across instances")
		}
		if a.Test(u, v, w) != a.Test(u, v, w) {
			t.Fatal("random behaviour not stable across reads")
		}
	}
}

func TestLookupCounting(t *testing.T) {
	f := bitset.New(4)
	s := NewLazy(f, nil)
	if s.Lookups() != 0 {
		t.Fatal("fresh syndrome has lookups")
	}
	s.Test(0, 1, 2)
	s.Test(0, 1, 3)
	if s.Lookups() != 2 {
		t.Fatalf("lookups = %d, want 2", s.Lookups())
	}
	s.ResetLookups()
	if s.Lookups() != 0 {
		t.Fatal("reset failed")
	}
}

func TestTableSizeAndForEach(t *testing.T) {
	g := k4() // 4 nodes of degree 3: 4 * C(3,2) = 12 tests
	if ts := TableSize(g); ts != 12 {
		t.Fatalf("TableSize = %d, want 12", ts)
	}
	count := 0
	ForEachTest(g, func(u, v, w int32) bool {
		if v >= w {
			t.Fatalf("pair not canonical: %d,%d", v, w)
		}
		count++
		return true
	})
	if count != 12 {
		t.Fatalf("enumerated %d tests, want 12", count)
	}
	// Early stop.
	count = 0
	ForEachTest(g, func(u, v, w int32) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop enumerated %d", count)
	}
}

func TestTableMatchesLazy(t *testing.T) {
	g := ringGraph(16)
	rng := rand.New(rand.NewSource(5))
	f := RandomFaults(16, 3, rng)
	for _, b := range AllBehaviors(11) {
		lazy := NewLazy(f, b)
		tab := BuildTable(g, lazy)
		if tab.Entries() != TableSize(g) {
			t.Fatalf("entries = %d, want %d", tab.Entries(), TableSize(g))
		}
		ForEachTest(g, func(u, v, w int32) bool {
			if tab.Test(u, v, w) != lazy.Test(u, v, w) {
				t.Fatalf("behaviour %s: table disagrees at s_%d(%d,%d)", b.Name(), u, v, w)
			}
			// Symmetric consultation must agree too.
			if tab.Test(u, w, v) != tab.Test(u, v, w) {
				t.Fatalf("table not symmetric at s_%d(%d,%d)", u, v, w)
			}
			return true
		})
	}
}

func TestTableLookupCounting(t *testing.T) {
	g := ringGraph(8)
	tab := BuildTable(g, NewLazy(bitset.New(8), nil))
	tab.ResetLookups()
	tab.Test(0, 1, 7)
	tab.Test(3, 2, 4)
	if tab.Lookups() != 2 {
		t.Fatalf("table lookups = %d, want 2", tab.Lookups())
	}
}

func TestTablePanicsOnNonNeighbor(t *testing.T) {
	g := ringGraph(8)
	tab := BuildTable(g, NewLazy(bitset.New(8), nil))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-neighbour test argument")
		}
	}()
	tab.Test(0, 3, 1) // 3 is not adjacent to 0 in C8
}

func TestConsistent(t *testing.T) {
	g := ringGraph(10)
	f := bitset.FromMembers(10, []int32{4})
	s := NewLazy(f, AllZero{})
	if !Consistent(g, s, f) {
		t.Fatal("true fault set must be consistent with its own syndrome")
	}
	// The empty hypothesis is inconsistent: healthy 3 tests (2,4) and
	// sees 1, but the empty hypothesis predicts 0.
	if Consistent(g, s, bitset.New(10)) {
		t.Fatal("empty hypothesis should be inconsistent")
	}
	// Superset {4,5}: node 3 healthy tests (2,4): truth 1, hypothesis
	// predicts 1; node 6 tests (5,7): sees 0 (5 healthy in reality) but
	// hypothesis predicts 1 -> inconsistent.
	if Consistent(g, s, bitset.FromMembers(10, []int32{4, 5})) {
		t.Fatal("superset hypothesis should be inconsistent here")
	}
}

func TestRandomFaultsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		size := rng.Intn(10)
		f := RandomFaults(64, size, rng)
		if f.Count() != size {
			t.Fatalf("fault set size %d, want %d", f.Count(), size)
		}
	}
	// Rough uniformity: each node should be hit sometimes.
	hits := make([]int, 8)
	for iter := 0; iter < 400; iter++ {
		f := RandomFaults(8, 2, rng)
		f.ForEach(func(i int) bool { hits[i]++; return true })
	}
	for i, h := range hits {
		if h == 0 {
			t.Fatalf("node %d never sampled in 400 draws", i)
		}
	}
}

func TestClusterFaults(t *testing.T) {
	g := ringGraph(12)
	f := ClusterFaults(g, 0, 4)
	if f.Count() != 4 {
		t.Fatalf("size %d, want 4", f.Count())
	}
	if f.Contains(0) {
		t.Fatal("center must not be faulty")
	}
	// Closest 4 nodes to 0 on C12 are 1, 11 (dist 1) and 2, 10 (dist 2).
	for _, want := range []int{1, 2, 10, 11} {
		if !f.Contains(want) {
			t.Fatalf("cluster missing %d: %v", want, f)
		}
	}
}

func TestNeighborhoodFaults(t *testing.T) {
	g := k4()
	f := NeighborhoodFaults(g, 0, 2)
	if f.Count() != 2 || f.Contains(0) {
		t.Fatalf("bad neighbourhood faults: %v", f)
	}
	full := NeighborhoodFaults(g, 0, 10)
	if full.Count() != 3 {
		t.Fatalf("full neighbourhood should have 3 nodes: %v", full)
	}
}

// TestShardedLookupCounting pins the counting contract across both
// modes: direct (plain counter) and the striped concurrent view. Every
// Test must be counted exactly once.
func TestShardedLookupCounting(t *testing.T) {
	F := bitset.New(64)
	F.Add(3)
	l := NewLazy(F, Mimic{})

	// Direct sequential counting.
	for i := 0; i < 10; i++ {
		l.Test(1, 0, 2)
	}
	if l.Lookups() != 10 {
		t.Fatalf("sequential: %d lookups, want 10", l.Lookups())
	}
	l.ResetLookups()

	const workers, per = 8, 1000
	var wg sync.WaitGroup

	// Striped concurrent view.
	c := ForConcurrent(l)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				u := int32(1 + (w*per+i)%62)
				c.Test(u, u-1, u+1)
			}
		}(w)
	}
	wg.Wait()
	if l.Lookups() != workers*per {
		t.Fatalf("concurrent view: %d lookups, want %d", l.Lookups(), workers*per)
	}
}
