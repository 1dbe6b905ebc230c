package distsim

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/baseline"
	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// echoProgram: node 0 sends a token around a ring a fixed number of
// times; exercises engine accounting and termination.
type echoProgram struct {
	g    *graph.Graph
	hops int
	seen int
}

func (p *echoProgram) Init() []Message {
	return []Message{{From: 0, To: 1, Kind: 1, A: 0}}
}

func (p *echoProgram) OnRound(u int32, in []Message) []Message {
	var out []Message
	for range in {
		p.seen++
		if p.seen >= p.hops {
			return nil
		}
		next := (u + 1) % int32(p.g.N())
		out = append(out, Message{From: u, To: next, Kind: 1})
	}
	return out
}

func (p *echoProgram) OnQuiet() []Message { return nil }

func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

func TestEngineTokenRing(t *testing.T) {
	g := ringGraph(8)
	e := NewEngine(2)
	p := &echoProgram{g: g, hops: 5}
	stats, err := e.Run(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", stats.Rounds)
	}
	if stats.Messages != 5 {
		t.Fatalf("messages = %d, want 5", stats.Messages)
	}
}

func TestEngineRoundLimit(t *testing.T) {
	g := ringGraph(4)
	e := NewEngine(1)
	p := &echoProgram{g: g, hops: 1 << 30}
	if _, err := e.Run(p, 10); err != ErrRoundLimit {
		t.Fatalf("expected ErrRoundLimit, got %v", err)
	}
}

// healthySeed returns a node known healthy via the library's own
// partition certification, as the wave protocol presumes.
func healthySeed(t *testing.T, nw topology.Network, s syndrome.Syndrome) int32 {
	t.Helper()
	_, stats, err := core.Diagnose(nw, s)
	if err != nil {
		t.Fatal(err)
	}
	return stats.Seed
}

func TestWaveMatchesCentralDiagnosis(t *testing.T) {
	q := topology.NewHypercube(7)
	g := q.Graph()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(8), rng)
		for _, b := range syndrome.AllBehaviors(uint64(trial)) {
			s := syndrome.NewLazy(F, b)
			seed := healthySeed(t, q, s)
			got, stats, err := RunWave(g, s, seed, 1000)
			if err != nil {
				t.Fatalf("behaviour %s: %v", b.Name(), err)
			}
			if !got.Equal(F) {
				t.Fatalf("behaviour %s: wave got %v want %v", b.Name(), got, F)
			}
			if stats.Rounds == 0 || stats.Messages == 0 {
				t.Fatal("stats not recorded")
			}
		}
	}
}

func TestWaveDeterministicAcrossWorkerCounts(t *testing.T) {
	q := topology.NewHypercube(6)
	g := q.Graph()
	F := syndrome.RandomFaults(g.N(), 5, rand.New(rand.NewSource(2)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	seed := healthySeed(t, q, s)

	run := func(workers int) (*bitset.Set, *Stats) {
		e := NewEngine(workers)
		w := NewWaveSetBuilder(e, g, s, seed)
		stats, err := e.Run(w, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return w.Result, stats
	}
	r1, s1 := run(1)
	r8, s8 := run(8)
	if !r1.Equal(r8) {
		t.Fatal("results differ across worker counts")
	}
	if s1.Rounds != s8.Rounds || s1.Messages != s8.Messages || s1.Tests != s8.Tests {
		t.Fatalf("stats differ across worker counts: %+v vs %+v", s1, s8)
	}
}

func hypercubeStars(t *testing.T, n int) []*baseline.ExtendedStar {
	t.Helper()
	stars := make([]*baseline.ExtendedStar, 1<<uint(n))
	for x := range stars {
		es, err := baseline.HypercubeExtendedStar(n, int32(x))
		if err != nil {
			t.Fatal(err)
		}
		stars[x] = es
	}
	return stars
}

func TestDistCTMatchesTruth(t *testing.T) {
	q := topology.NewHypercube(6)
	g := q.Graph()
	stars := hypercubeStars(t, 6)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		F := syndrome.RandomFaults(g.N(), rng.Intn(7), rng)
		for _, b := range syndrome.AllBehaviors(uint64(trial)) {
			s := syndrome.NewLazy(F, b)
			got, stats, err := RunDistCT(g, s, stars, 1000)
			if err != nil {
				t.Fatalf("behaviour %s: %v", b.Name(), err)
			}
			if !got.Equal(F) {
				t.Fatalf("behaviour %s: got %v want %v", b.Name(), got, F)
			}
			wantTests := int64(3 * 6 * g.N())
			if stats.Tests != wantTests {
				t.Fatalf("CT tests = %d, want exactly %d", stats.Tests, wantTests)
			}
		}
	}
}

// TestConclusionsComparison pins the paper's Conclusions claim: the
// distributed Set_Builder performs far fewer comparison tests and moves
// fewer records than the distributed extended-star algorithm.
func TestConclusionsComparison(t *testing.T) {
	q := topology.NewHypercube(8)
	g := q.Graph()
	n := 8
	stars := make([]*baseline.ExtendedStar, g.N())
	for x := range stars {
		es, err := baseline.HypercubeExtendedStar(n, int32(x))
		if err != nil {
			t.Fatal(err)
		}
		stars[x] = es
	}
	F := syndrome.RandomFaults(g.N(), n, rand.New(rand.NewSource(3)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})

	seed := healthySeed(t, q, s)
	s.ResetLookups()
	waveF, waveStats, err := RunWave(g, s, seed, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctF, ctStats, err := RunDistCT(g, s, stars, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !waveF.Equal(ctF) {
		t.Fatal("protocols disagree")
	}
	if waveStats.Tests*2 >= ctStats.Tests {
		t.Fatalf("expected wave to use < half the tests: wave %d vs CT %d", waveStats.Tests, ctStats.Tests)
	}
	if waveStats.Messages >= ctStats.Messages {
		t.Fatalf("expected wave to send fewer messages: wave %d vs CT %d", waveStats.Messages, ctStats.Messages)
	}
}
