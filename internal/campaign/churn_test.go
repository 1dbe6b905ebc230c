package campaign

import (
	"math/rand"
	"sync"
	"testing"

	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestRuntimeServesAcrossRebind drives DiagnoseBatch traffic through a
// persistent runtime while the bound engine is rebound under churn:
// the worker scratches must survive the graph change, batches
// racing the rebind may land on either side of it, and batches issued
// after the rebind must serve exact degraded diagnoses.
func TestRuntimeServesAcrossRebind(t *testing.T) {
	nw := topology.NewHypercube(8)
	eng := core.NewEngine(nw)
	rt := NewRuntime(eng, 4)
	defer rt.Close()
	cache := core.NewResultCache(256)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := eng.Graph()
				syns := make([]syndrome.Syndrome, 6)
				for i := range syns {
					F := syndrome.RandomFaults(g.N(), rng.Intn(4), rng)
					syns[i] = syndrome.NewLazy(F, syndrome.Mimic{})
				}
				rt.DiagnoseBatch(syns, core.BatchOptions{
					ShareHypotheses: true,
					Options:         core.Options{ResultCache: cache},
				})
			}
		}(int64(w))
	}

	rng := rand.New(rand.NewSource(20260808))
	for round := 0; round < 4; round++ {
		g := eng.Graph()
		rr := g.RemoveNodes([]int32{int32(rng.Intn(g.N()))})
		if _, err := eng.Rebind(rr, cache); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()

	// Post-churn batches through the same runtime must be exact and
	// stamped degraded.
	g := eng.Graph()
	delta := eng.Diagnosability()
	syns := make([]syndrome.Syndrome, 8)
	want := make([]int, len(syns))
	for i := range syns {
		F := syndrome.RandomFaults(g.N(), rng.Intn(delta+1), rng)
		want[i] = F.Count()
		syns[i] = syndrome.NewLazy(F, syndrome.Mimic{})
	}
	for i, r := range rt.DiagnoseBatch(syns, core.BatchOptions{Options: core.Options{ResultCache: cache}}) {
		if r.Err != nil {
			t.Fatalf("post-churn batch[%d]: %v", i, r.Err)
		}
		if r.Faults.Count() != want[i] {
			t.Fatalf("post-churn batch[%d]: %d faults, want %d", i, r.Faults.Count(), want[i])
		}
		if !r.Stats.Degraded || r.Stats.EffectiveDelta != delta {
			t.Fatalf("post-churn batch[%d] not stamped degraded: %+v", i, r.Stats)
		}
	}
}
