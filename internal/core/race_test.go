package core

import (
	"math/rand"
	"sync"
	"testing"

	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// TestConcurrentDiagnoses runs many diagnoses at once, each with its
// own syndrome but drawing scratches from the shared pool — the
// campaign workload shape. Meaningful mainly under -race.
func TestConcurrentDiagnoses(t *testing.T) {
	setGOMAXPROCS(t, 4)
	nw := topology.NewHypercube(8)
	delta := nw.Diagnosability()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				F := syndrome.RandomFaults(nw.Graph().N(), delta, rand.New(rand.NewSource(seed*100+int64(i))))
				s := syndrome.NewLazy(F, syndrome.Mimic{})
				got, _, err := Diagnose(nw, s)
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(F) {
					t.Error("misdiagnosis under concurrency")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
