package distsim

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

func TestCentralCollectAssemblesFullSyndrome(t *testing.T) {
	nw := topology.NewHypercube(7)
	g := nw.Graph()
	delta := nw.Diagnosability()
	parts, err := nw.Parts(delta+1, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	F := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(6)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})
	e := NewEngine(0)
	c := NewCentralCollect(e, g, s)
	stats, err := e.Run(c, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if int64(c.Collected) != syndrome.TableSize(g) {
		t.Fatalf("collected %d entries, table has %d", c.Collected, syndrome.TableSize(g))
	}
	if stats.Tests != syndrome.TableSize(g) {
		t.Fatalf("performed %d tests, want the full table %d", stats.Tests, syndrome.TableSize(g))
	}
	// Every entry travels at least one hop (except node 0's own), so
	// the record traffic must exceed the table size by a depth factor.
	if stats.Records <= syndrome.TableSize(g) {
		t.Fatalf("records %d implausibly low", stats.Records)
	}
	// And the subsequent central diagnosis is exact.
	got, _, err := RunCentralCollect(g, s, delta, parts, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(F) {
		t.Fatal("central diagnosis wrong")
	}
}

// TestCollectVsWaveLedger pins the Conclusions-level contrast: shipping
// the syndrome to a centre moves orders of magnitude more records than
// the wave.
func TestCollectVsWaveLedger(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	delta := nw.Diagnosability()
	parts, err := nw.Parts(delta+1, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	F := syndrome.RandomFaults(g.N(), delta, rand.New(rand.NewSource(7)))
	s := syndrome.NewLazy(F, syndrome.Mimic{})

	_, dstats, err := core.Diagnose(nw, s)
	if err != nil {
		t.Fatal(err)
	}
	waveF, wstats, err := RunWave(g, s, dstats.Seed, 10000)
	if err != nil {
		t.Fatal(err)
	}
	collectF, cstats, err := RunCentralCollect(g, s, delta, parts, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !waveF.Equal(collectF) || !waveF.Equal(F) {
		t.Fatal("protocols disagree")
	}
	if wstats.Records*10 >= cstats.Records {
		t.Fatalf("expected ≥10x record gap: wave %d vs collect %d", wstats.Records, cstats.Records)
	}
	if wstats.Tests*5 >= cstats.Tests {
		t.Fatalf("expected ≥5x test gap: wave %d vs collect %d", wstats.Tests, cstats.Tests)
	}
}

func TestFaultBoundOptionShrinksCost(t *testing.T) {
	nw := topology.NewHypercube(10)
	g := nw.Graph()
	F := syndrome.RandomFaults(g.N(), 3, rand.New(rand.NewSource(8)))

	sFull := syndrome.NewLazy(F, syndrome.Mimic{})
	gotFull, statsFull, err := core.DiagnoseOpts(nw, sFull, core.Options{})
	if err != nil || !gotFull.Equal(F) {
		t.Fatalf("full-bound diagnosis failed: %v", err)
	}
	sTight := syndrome.NewLazy(F, syndrome.Mimic{})
	gotTight, statsTight, err := core.DiagnoseOpts(nw, sTight, core.Options{FaultBound: 3})
	if err != nil || !gotTight.Equal(F) {
		t.Fatalf("tight-bound diagnosis failed: %v", err)
	}
	if statsTight.CertLookups >= statsFull.CertLookups {
		t.Fatalf("tight bound should certify cheaper: %d vs %d",
			statsTight.CertLookups, statsFull.CertLookups)
	}
	if statsTight.Delta != 3 {
		t.Fatalf("stats delta %d, want 3", statsTight.Delta)
	}
}
