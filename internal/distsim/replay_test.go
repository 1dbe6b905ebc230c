package distsim

import (
	"math/rand"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"

	"comparisondiag/internal/core"
)

// TestCollectServerReplayMatchesOneShot pins the persistent replay
// path: each wave's fault set and network ledger must match the
// one-shot RunCentralCollect, repeated syndromes must hit the shared
// result cache, and the runtime must have served the diagnoses.
func TestCollectServerReplayMatchesOneShot(t *testing.T) {
	nw := topology.NewHypercube(7)
	g := nw.Graph()
	delta := nw.Diagnosability()
	parts, err := nw.Parts(delta+1, delta+1)
	if err != nil {
		t.Fatal(err)
	}

	// Three distinct hypotheses, each replayed twice (the wave-after-
	// wave workload: system state mostly unchanged between waves).
	faultSets := make([]*bitset.Set, 3)
	for d := range faultSets {
		faultSets[d] = syndrome.RandomFaults(g.N(), 1+d, rand.New(rand.NewSource(int64(70+d))))
	}
	var syns []syndrome.Syndrome
	for round := 0; round < 2; round++ {
		for _, F := range faultSets {
			syns = append(syns, syndrome.NewLazy(F, syndrome.Mimic{}))
		}
	}

	// One worker: with several, a second-round wave can be diagnosed
	// concurrently with its first-round twin and miss legitimately.
	cs := NewCollectServer(g, delta, parts, 1, 4*g.N())
	defer cs.Close()
	cache := core.NewResultCache(16)
	results := cs.ReplayBatch(syns, cache, core.BatchOptions{})

	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("wave %d: %v", i, r.Err)
		}
		F := faultSets[i%len(faultSets)]
		if !r.Faults.Equal(F) {
			t.Fatalf("wave %d: replay misdiagnosed", i)
		}
		want, wantNet, err := RunCentralCollect(g, syndrome.NewLazy(F, syndrome.Mimic{}), delta, parts, 4*g.N())
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(r.Faults) {
			t.Fatalf("wave %d: replay differs from one-shot collection", i)
		}
		if r.Net.Records != wantNet.Records || r.Net.Rounds != wantNet.Rounds || r.Net.Tests != wantNet.Tests {
			t.Fatalf("wave %d: network ledger differs: %+v vs %+v", i, r.Net, *wantNet)
		}
	}
	if st := cache.Stats(); st.Hits < int64(len(faultSets)) {
		t.Fatalf("expected the second round to hit the cache, got %+v", st)
	}
	if rs := cs.Runtime().Stats(); rs.TotalTrials() == 0 {
		t.Fatal("runtime served no diagnoses")
	}
}

// TestCollectServerReplayBatchShared pins the grouped replay path:
// ReplayBatch with hypothesis grouping (shared certification + shared
// final prefix) returns the same fault sets as the plain Replay, with
// the group members having shared a non-empty final prefix whenever
// one was recordable, and strictly fewer total syndrome consultations.
func TestCollectServerReplayBatchShared(t *testing.T) {
	nw := topology.NewHypercube(7)
	g := nw.Graph()
	delta := nw.Diagnosability()
	parts, err := nw.Parts(delta+1, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	F := syndrome.ClusterFaults(g, int32(g.N()-1), delta/2)
	behaviors := syndrome.AllBehaviors(3)
	makeSyns := func() []syndrome.Syndrome {
		var syns []syndrome.Syndrome
		for _, b := range behaviors {
			syns = append(syns, syndrome.NewLazy(F, b))
		}
		return syns
	}

	cs := NewCollectServer(g, delta, parts, 2, 4*g.N())
	defer cs.Close()

	plainSyns := makeSyns()
	plain := cs.ReplayBatch(plainSyns, nil, core.BatchOptions{})
	sharedSyns := makeSyns()
	shared := cs.ReplayBatch(sharedSyns, nil, core.BatchOptions{
		ShareHypotheses: true,
	})
	var plainLookups, sharedLookups int64
	members := 0
	for i := range shared {
		if shared[i].Err != nil || plain[i].Err != nil {
			t.Fatalf("wave %d: %v / %v", i, shared[i].Err, plain[i].Err)
		}
		if !shared[i].Faults.Equal(plain[i].Faults) {
			t.Fatalf("wave %d: grouped replay diverged from plain replay", i)
		}
		if shared[i].Net != plain[i].Net {
			t.Fatalf("wave %d: grouping must not change the network ledger", i)
		}
		plainLookups += plainSyns[i].(*syndrome.Lazy).Lookups()
		sharedLookups += sharedSyns[i].(*syndrome.Lazy).Lookups()
		if shared[i].Diag.SharedFinalLookups > 0 {
			members++
		}
	}
	if members == 0 {
		t.Fatal("no replay member adopted a shared final prefix")
	}
	if sharedLookups >= plainLookups {
		t.Fatalf("grouped replay consulted %d look-ups, plain %d", sharedLookups, plainLookups)
	}
}
