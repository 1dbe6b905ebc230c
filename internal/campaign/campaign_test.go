package campaign

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestReseedMatchesFreshSource pins the invariant the per-worker PRNG
// hoist rests on: reseeding one rand.Rand reproduces exactly the stream
// a freshly constructed source would give, so campaign fault sets are
// unchanged by the allocation-free refactor.
func TestReseedMatchesFreshSource(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	for i := 0; i < 8; i++ {
		seed := int64(1_000_003*i + 42)
		rng.Seed(seed)
		a := syndrome.RandomFaults(512, 9, rng)
		b := syndrome.RandomFaults(512, 9, rand.New(rand.NewSource(seed)))
		if !a.Equal(b) {
			t.Fatalf("seed %d: reseeded stream diverged: %v vs %v", seed, a, b)
		}
	}
}

func TestSweepWithinGuaranteeIsAlwaysExact(t *testing.T) {
	nw := topology.NewHypercube(7)
	points := Sweep(nw, Config{
		MinFaults: 0,
		MaxFaults: nw.Diagnosability(),
		Trials:    10,
		Seed:      1,
	})
	if len(points) != nw.Diagnosability()+1 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Exact != p.Trials {
			t.Fatalf("%d faults: %d/%d exact, %d refused, %d silent — guarantee violated",
				p.Faults, p.Exact, p.Trials, p.Refused, p.Silent)
		}
		if p.ExactRate() != 1.0 {
			t.Fatalf("exact rate %f", p.ExactRate())
		}
	}
}

func TestSweepBeyondGuaranteeDegradesGracefully(t *testing.T) {
	nw := topology.NewHypercube(7)
	delta := nw.Diagnosability()
	points := Sweep(nw, Config{
		MinFaults: delta + 1,
		MaxFaults: delta + 8,
		Trials:    20,
		Seed:      2,
	})
	sawNonExact := false
	for _, p := range points {
		if p.Exact+p.Refused+p.Silent != p.Trials {
			t.Fatalf("outcome accounting broken at %d faults", p.Faults)
		}
		if p.Exact != p.Trials {
			sawNonExact = true
		}
	}
	if !sawNonExact {
		t.Fatal("expected degradation somewhere beyond δ+8? campaign saw none — suspicious")
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	nw := topology.NewKAryNCube(3, 3)
	cfg := Config{MinFaults: 4, MaxFaults: 8, Trials: 12, Seed: 3}
	cfg.Workers = 1
	a := Sweep(nw, cfg)
	cfg.Workers = 8
	b := Sweep(nw, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSweepVerificationPathOnGapG3Instance(t *testing.T) {
	nw := topology.NewNKStar(6, 2) // no partition: verification path
	points := Sweep(nw, Config{
		MinFaults: 0,
		MaxFaults: nw.Diagnosability(),
		Trials:    4,
		Seed:      4,
		Behavior:  syndrome.AllZero{},
	})
	for _, p := range points {
		if p.Exact != p.Trials {
			t.Fatalf("verification path not exact at %d faults: %+v", p.Faults, p)
		}
	}
}

// TestSweepVerificationPathImplicitEngine campaigns Q3–Q5, which have
// no Theorem 1 partition, through descriptor-bound engines: with no CSR
// bound, SweepRuntime must still take the verification fallback and
// match the CSR-bound sweep point for point. (Q2's δ is 0, which an
// implicit engine refuses to bind.)
func TestSweepVerificationPathImplicitEngine(t *testing.T) {
	for n := 3; n <= 5; n++ {
		masks := make([]int32, n)
		for i := range masks {
			masks[i] = 1 << uint(i)
		}
		eng, err := core.NewCayleyEngine(graph.XORCayley{Bits: n, Masks: masks}, topology.HypercubeDiagnosability(n))
		if err != nil {
			t.Fatal(err)
		}
		if eng.PartsErr() == nil || eng.Graph() != nil {
			t.Fatalf("Q%d: want a partition-less engine with no CSR", n)
		}
		cfg := Config{MinFaults: 0, MaxFaults: n + 1, Trials: 8, Seed: 3}
		rt := NewRuntime(eng, 2)
		got := SweepRuntime(rt, cfg)
		rt.Close()
		want := Sweep(topology.NewHypercube(n), cfg)
		if !pointsEqual(got, want) {
			t.Fatalf("Q%d: implicit sweep %+v, CSR sweep %+v", n, got, want)
		}
		if want[1].Exact == 0 {
			t.Fatalf("Q%d: verification path exact at no single fault: %+v", n, want[1])
		}
	}
}

// TestConcurrentSweeps runs two sweeps of the same network at the same
// time, each with internal worker parallelism. Per-trial syndromes are
// private to their goroutine (the plain-counter fast path), so under
// -race this pins the claim that campaign parallelism needs no atomic
// look-up counting.
func TestConcurrentSweeps(t *testing.T) {
	nw := topology.NewHypercube(6)
	done := make(chan []Point, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			done <- Sweep(nw, Config{
				MinFaults: 1,
				MaxFaults: nw.Diagnosability(),
				Trials:    8,
				Seed:      seed,
				Workers:   4,
			})
		}(int64(i + 1))
	}
	for i := 0; i < 2; i++ {
		points := <-done
		if len(points) != nw.Diagnosability() {
			t.Fatalf("got %d points", len(points))
		}
		for _, p := range points {
			if p.Exact != p.Trials {
				t.Fatalf("%d faults: %d/%d exact — guarantee violated", p.Faults, p.Exact, p.Trials)
			}
		}
	}
}
