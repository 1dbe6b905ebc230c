package distsim

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestWaveOnNonHypercubeFamilies: the wave protocol is generic — run it
// on a torus and a star graph.
func TestWaveOnNonHypercubeFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, nw := range []topology.Network{
		topology.NewKAryNCube(4, 3),
		topology.NewStar(6),
	} {
		g := nw.Graph()
		F := syndrome.RandomFaults(g.N(), nw.Diagnosability(), rng)
		s := syndrome.NewLazy(F, syndrome.Mimic{})
		_, stats, err := core.Diagnose(nw, s)
		if err != nil {
			t.Fatalf("%s: %v", nw.Name(), err)
		}
		got, wstats, err := RunWave(g, s, stats.Seed, 10000)
		if err != nil {
			t.Fatalf("%s: %v", nw.Name(), err)
		}
		if !got.Equal(F) {
			t.Fatalf("%s: wave misdiagnosis", nw.Name())
		}
		if wstats.OnePortTime == 0 || wstats.Records < wstats.Messages {
			t.Fatalf("%s: implausible stats %+v", nw.Name(), wstats)
		}
	}
}

// TestWaveZeroFaults: the wave must cover the whole machine and report
// an empty fault set.
func TestWaveZeroFaults(t *testing.T) {
	nw := topology.NewHypercube(6)
	g := nw.Graph()
	s := syndrome.NewLazy(syndrome.RandomFaults(g.N(), 0, rand.New(rand.NewSource(1))), nil)
	got, stats, err := RunWave(g, s, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Fatalf("phantom faults %v", got)
	}
	// Growth rounds ≈ eccentricity; convergecast adds about as many.
	if stats.Rounds < 6 {
		t.Fatalf("implausibly few rounds: %d", stats.Rounds)
	}
}

// TestWaveTestEconomy: the wave performs O(Δ·|U|) tests — each joining
// node tests at most its degree-minus-parent neighbours, because unlike
// the sequential pass it cannot know which neighbours already joined.
// That is still demand-driven (nothing outside the healthy region plus
// its boundary is ever tested), just with a Δ-factor redundancy; the
// bound here pins both sides.
func TestWaveTestEconomy(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	F := syndrome.RandomFaults(g.N(), 8, rand.New(rand.NewSource(2)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	_, stats, err := core.Diagnose(nw, s)
	if err != nil {
		t.Fatal(err)
	}
	_, wstats, err := RunWave(g, s, stats.Seed, 10000)
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := int64(g.MaxDegree())
	healthy := int64(stats.HealthyCount)
	upper := healthy*(maxDeg-1) + maxDeg*(maxDeg-1)/2 // joins + root pair scan
	if wstats.Tests > upper {
		t.Fatalf("wave tests %d exceed the Δ|U| bound %d", wstats.Tests, upper)
	}
	// And it must never regress below the sequential demand set.
	if wstats.Tests < stats.FinalLookups/2 {
		t.Fatalf("wave tests %d implausibly below sequential %d", wstats.Tests, stats.FinalLookups)
	}
}

// TestEngineRecordsAccounting: Records counts payload items (1 + list
// length per message).
func TestEngineRecordsAccounting(t *testing.T) {
	e := NewEngine(1)
	p := &listProgram{}
	stats, err := e.Run(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	// One init message with 3 list items (4 records), one reply with no
	// list (1 record).
	if stats.Records != 5 {
		t.Fatalf("records = %d, want 5", stats.Records)
	}
	if stats.Messages != 2 {
		t.Fatalf("messages = %d, want 2", stats.Messages)
	}
}

type listProgram struct{ replied bool }

func (p *listProgram) Init() []Message {
	return []Message{{From: 0, To: 1, Kind: 9, List: []int32{7, 8, 9}}}
}

func (p *listProgram) OnRound(u int32, in []Message) []Message {
	if u == 1 && !p.replied {
		p.replied = true
		return []Message{{From: 1, To: 0, Kind: 10}}
	}
	return nil
}

func (p *listProgram) OnQuiet() []Message { return nil }
