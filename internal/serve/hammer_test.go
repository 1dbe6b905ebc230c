package serve

import (
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestObservabilityPollingRace is the satellite audit for the snapshot
// paths the /metrics exporter polls while the stack serves: per-worker
// Runtime.Stats trial loads, ResultCache.Stats, the Stats.Degraded
// stamping window around Engine.Rebind, and the derived-rate helpers.
// Run under -race (verify.sh's matrix includes this package); the test
// asserts nothing beyond "no torn read and no panic" — the serving
// goroutines' results are deliberately ignored because a flapping
// engine legitimately refuses hypotheses above its momentary δ′.
func TestObservabilityPollingRace(t *testing.T) {
	nw, err := topology.Parse("q:6")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(nw)
	cache := core.NewResultCache(64)
	rt := campaign.NewRuntime(eng, 2)
	defer rt.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Serving load: grouped batches through the persistent pool.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				syns := make([]syndrome.Syndrome, 4)
				for j := range syns {
					F := syndrome.RandomFaults(64, 3, rng)
					syns[j] = syndrome.NewLazy(F, syndrome.Mimic{})
				}
				rt.DiagnoseBatch(syns, core.BatchOptions{
					ShareHypotheses: true,
					Options:         core.Options{ResultCache: cache},
				})
			}
		}(w)
	}

	// Churn: flap cycles rebind the engine (and epoch-flush the cache)
	// while the pollers read Degraded/Diagnosability/KernelName.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := eng.Graph()
			gone := []int32{int32(rng.Intn(g.N()))}
			rr := g.Remove(gone, nil)
			if _, err := eng.Rebind(rr, cache); err != nil {
				t.Error("removal rebind:", err)
				return
			}
			if _, err := eng.Rebind(graph.Restore(rr, gone, nil), cache); err != nil {
				t.Error("growth rebind:", err)
				return
			}
		}
	}()

	// Pollers: the exporter's exact read set, spinning.
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs := rt.Stats()
				_ = rs.TotalTrials()
				_ = rs.Occupancy()
				cs := cache.Stats()
				_ = cs.HitRate()
				_ = eng.Degraded()
				_ = eng.Diagnosability()
				_ = eng.KernelName()
				_ = eng.PartsErr()
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestServerSnapshotPollingRace hammers the HTTP layer the same way:
// concurrent diagnose and campaign traffic against Server.Snapshot,
// /metrics and /healthz pollers. Run under -race.
func TestServerSnapshotPollingRace(t *testing.T) {
	srv := New(Config{Window: time.Millisecond, MaxBatch: 8, Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				F := syndrome.RandomFaults(64, 1+rng.Intn(4), rng)
				behaviors := []string{"mimic", "allzero", "allone", "inverted"}
				postDiagnose(t, ts.URL, DiagnoseRequest{
					Topology: "q:6", Faults: F.Members(), Behavior: behaviors[rng.Intn(len(behaviors))],
				})
			}
		}(c)
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				for _, e := range snap.Engines {
					_ = e.Cache.HitRate()
					_ = e.Runtime.Occupancy()
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
