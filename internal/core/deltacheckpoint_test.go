package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// checkDeltaAgainstFree pins the delta-encoded checkpoint against the
// free functions along both of its lifetimes: a batch without a cache
// (recorded and resumed inside the batch), then two batches sharing one
// cache — the first records and stores the hypothesis entry, the second
// (fresh behaviours) has no representative and resumes every syndrome
// from the stored checkpoint.
func checkDeltaAgainstFree(t *testing.T, label string, eng *Engine, F *bitset.Set, bopt BatchOptions,
	free func(syndrome.Syndrome) (*bitset.Set, *Stats, error)) {
	t.Helper()
	checkBatchAgainstFree(t, label+" batch-local", eng, F, sharedFinalBehaviors(), bopt, false, free)
	cache := NewResultCache(64)
	cached := bopt
	cached.Options.ResultCache = cache
	checkBatchAgainstFree(t, label+" recording", eng, F, sharedFinalBehaviors(), cached, false, free)
	groupable := F.Count() <= eng.Diagnosability()
	checkBatchAgainstFree(t, label+" memo", eng, F, memoBehaviors(), cached, groupable, free)
	if hits := cache.Stats().HypothesisHits; groupable && hits != 1 {
		t.Fatalf("%s: %d hypothesis hits, want 1", label, hits)
	}
}

// TestDeltaCheckpointMatchesFullCopy pins the delta-encoded shared-final
// checkpoint — the one layout, and immutable once stored — against the
// full copy of the work it replaces, the free function's complete run:
// fault sets, errors and the shape Stats equal, the adopted prefix plus
// the member's own suffix equal to the full final pass, per syndrome.
// Cases cover every final-pass kernel (the generic pass, xor-cayley,
// additive-rotate), a declared mixed-radix structure the generic pass
// serves, and the empty hypothesis whose prefix is complete, both
// inside one batch and resumed from the ResultCache.
func TestDeltaCheckpointMatchesFullCopy(t *testing.T) {
	cases := []struct {
		name    string
		nw      topology.Network
		generic bool
	}{
		{"q8-kernel", topology.NewHypercube(8), false},
		{"q8-generic", topology.NewHypercube(8), true},
		{"kary4x4-additive", topology.NewKAryNCube(4, 4), false},
		{"akary4x4-mixedradix", topology.NewAugmentedKAryNCube(4, 4), false},
		{"star6-generic", topology.NewStar(6), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(tc.nw)
			g := tc.nw.Graph()
			rng := rand.New(rand.NewSource(41))
			loads := []int{0, 1, tc.nw.Diagnosability()}
			for trial := 0; trial < 3; trial++ {
				loads = append(loads, 1+rng.Intn(tc.nw.Diagnosability()))
			}
			opt := Options{GenericFinal: tc.generic}
			free := func(s syndrome.Syndrome) (*bitset.Set, *Stats, error) { return DiagnoseOpts(tc.nw, s, opt) }
			for _, load := range loads {
				F := syndrome.RandomFaults(g.N(), load, rng)
				bopt := BatchOptions{ShareHypotheses: true, Options: opt}
				checkDeltaAgainstFree(t, tc.name, eng, F, bopt, free)
			}
		})
	}
}

// TestDeltaCheckpointGoldenCorpus replays every committed golden
// fixture (testdata/golden: frozen topology + fault set + adversary,
// including the empty hypothesis and the beyond-δ refusal) through
// shared-final batches, batch-local and resumed from the ResultCache.
// Member 0 of the first batch runs the fixture's own adversary — its
// fault set (or pinned refusal) must still match the corpus — and every
// syndrome must match the free functions under the accounting contract.
func TestDeltaCheckpointGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden fixtures found (%v)", err)
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fx goldenFixture
			if err := json.Unmarshal(raw, &fx); err != nil {
				t.Fatal(err)
			}
			nw, err := topology.Parse(fx.Net)
			if err != nil {
				t.Fatal(err)
			}
			n := nw.Graph().N()
			F := bitset.FromMembers(n, fx.Faults)
			eng := NewEngine(nw)
			free := func(s syndrome.Syndrome) (*bitset.Set, *Stats, error) { return Diagnose(nw, s) }
			panel := append([]syndrome.Behavior{goldenBehavior(fx.Behavior, fx.BehaviorSeed)}, sharedFinalBehaviors()...)
			cache := NewResultCache(32)
			bopt := BatchOptions{ShareHypotheses: true, Options: Options{ResultCache: cache}}
			got := checkBatchAgainstFree(t, "recording", eng, F, panel, bopt, false, free)
			checkBatchAgainstFree(t, "memo", eng, F, memoBehaviors(), bopt, F.Count() <= nw.Diagnosability(), free)
			switch {
			case fx.WantErr != "":
				if got[0].Err == nil || !strings.Contains(got[0].Err.Error(), fx.WantErr) {
					t.Fatalf("fixture adversary: err %v, corpus pins %q", got[0].Err, fx.WantErr)
				}
			case got[0].Err != nil:
				t.Fatalf("fixture adversary: unexpected error %v", got[0].Err)
			case !got[0].Faults.Equal(bitset.FromMembers(n, fx.WantFaults)):
				t.Fatalf("fixture adversary: fault set %v differs from corpus %v",
					got[0].Faults, fx.WantFaults)
			}
		})
	}
}

// TestFullCheckpointAgainstFreeFunctions pins a full group served from
// a stored checkpoint: on a far-clustered hypothesis (a long
// behaviour-independent prefix), a batch whose hypothesis entry is
// already in the cache has no representative — every syndrome, the
// first included, adopts the stored scan verdict and resumes from the
// stored checkpoint, and each matches the free function.
func TestFullCheckpointAgainstFreeFunctions(t *testing.T) {
	nw := topology.NewHypercube(9)
	g := nw.Graph()
	eng := NewEngine(nw)
	parts, err := eng.Parts()
	if err != nil {
		t.Fatal(err)
	}
	center := parts[0].Seed ^ int32(g.N()-1)
	F := syndrome.ClusterFaults(g, center, nw.Diagnosability())
	free := func(s syndrome.Syndrome) (*bitset.Set, *Stats, error) { return Diagnose(nw, s) }
	bopt := BatchOptions{ShareHypotheses: true, Options: Options{ResultCache: NewResultCache(16)}}
	checkBatchAgainstFree(t, "recording", eng, F, sharedFinalBehaviors()[:1], bopt, false, free)
	for i, r := range checkBatchAgainstFree(t, "memo", eng, F, memoBehaviors(), bopt, true, free) {
		if r.Stats.CertLookups != 0 || r.Stats.SharedFinalLookups == 0 {
			t.Fatalf("syndrome %d: cert %d, shared final %d; want the stored scan and prefix adopted",
				i, r.Stats.CertLookups, r.Stats.SharedFinalLookups)
		}
	}
}
