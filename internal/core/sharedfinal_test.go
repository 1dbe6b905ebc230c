package core

import (
	"errors"
	"math/rand"
	"testing"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// sharedFinalBehaviors is the behaviour panel grouped-batch tests
// replay one hypothesis under.
func sharedFinalBehaviors() []syndrome.Behavior {
	return []syndrome.Behavior{
		syndrome.Mimic{}, syndrome.AllZero{}, syndrome.AllOne{},
		syndrome.Inverted{}, syndrome.Random{Seed: 11},
	}
}

// checkSharedFinalGroup runs one fault hypothesis through a grouped
// DiagnoseBatch on the given network/engine and pins the
// ShareHypotheses contract against the paper-literal free functions
// (checkBatchAgainstFree), plus the point of sharing: the group-total
// look-ups strictly below the unshared total whenever a non-empty
// prefix was shared.
func checkSharedFinalGroup(t *testing.T, nw topology.Network, eng *Engine, F *bitset.Set, bopt BatchOptions) {
	t.Helper()
	bopt.ShareHypotheses = true
	behaviors := sharedFinalBehaviors()
	free := func(s syndrome.Syndrome) (*bitset.Set, *Stats, error) { return Diagnose(nw, s) }
	results := checkBatchAgainstFree(t, "shared-final group", eng, F, behaviors, bopt, false, free)
	var freeTotal, groupTotal int64
	sharedAny := false
	for i, r := range results {
		ref := syndrome.NewLazy(F, behaviors[i])
		free(ref)
		freeTotal += ref.Lookups()
		groupTotal += r.Stats.TotalLookups
		if st := r.Stats; st.SharedFinalRounds < 0 || st.SharedFinalRounds > st.Rounds {
			t.Fatalf("syndrome %d: shared rounds %d outside [0, %d]", i, st.SharedFinalRounds, st.Rounds)
		}
		sharedAny = sharedAny || r.Stats.SharedFinalLookups > 0
	}
	if sharedAny && groupTotal >= freeTotal {
		t.Fatalf("group total %d look-ups not below unshared total %d despite a shared prefix", groupTotal, freeTotal)
	}
}

// memoBehaviors is a behaviour panel disjoint from sharedFinalBehaviors:
// a batch drawn from it after one drawn from sharedFinalBehaviors hits
// no result-cache entry, so every syndrome exercises the hypothesis
// memo instead.
func memoBehaviors() []syndrome.Behavior {
	return []syndrome.Behavior{syndrome.Random{Seed: 101}, syndrome.Random{Seed: 102}, syndrome.Random{Seed: 103}}
}

// checkBatchAgainstFree runs one hypothesis under the behaviour panel
// as a grouped batch and pins every result against the paper-literal
// free function under the accounting contract (diffStats): syndromes
// past the first are members, and with allMembers so is the first —
// the shape of a batch whose hypothesis is served from the memo. Every
// successful syndrome must have been consulted exactly TotalLookups
// times, or not at all when a result cache answered it. Hypotheses
// beyond the bound are never grouped.
func checkBatchAgainstFree(t *testing.T, label string, eng *Engine, F *bitset.Set, behaviors []syndrome.Behavior,
	bopt BatchOptions, allMembers bool, free func(syndrome.Syndrome) (*bitset.Set, *Stats, error)) []BatchResult {
	t.Helper()
	var syns []syndrome.Syndrome
	for _, b := range behaviors {
		syns = append(syns, syndrome.NewLazy(F, b))
	}
	results := eng.DiagnoseBatch(syns, bopt)
	groupable := F.Count() <= eng.Diagnosability()
	for i, r := range results {
		want, wantStats, wantErr := free(syndrome.NewLazy(F, behaviors[i]))
		if wantErr != nil && !errors.Is(r.Err, wantErr) {
			t.Fatalf("%s: syndrome %d (%s): err %v, free function %v", label, i, behaviors[i].Name(), r.Err, wantErr)
		}
		member := groupable && (allMembers || i > 0)
		if err := diffStats(r, want, wantStats, wantErr, member, bopt.Options.ResultCache != nil); err != nil {
			t.Fatalf("%s: syndrome %d (%s): %v", label, i, behaviors[i].Name(), err)
		}
		if got := syns[i].Lookups(); r.Err == nil && got != r.Stats.TotalLookups && !(bopt.Options.ResultCache != nil && got == 0) {
			t.Fatalf("%s: syndrome %d consulted %d times, stats say %d", label, i, got, r.Stats.TotalLookups)
		}
	}
	return results
}

// TestShareFinalPrefixAccounting pins the shared-final-prefix contract
// on a kernel-bound engine (Q9: xor-cayley) for a far-clustered
// hypothesis — the workload with a long behaviour-independent prefix.
// Members adopt the representative's scan verdict along with its
// prefix.
func TestShareFinalPrefixAccounting(t *testing.T) {
	nw := topology.NewHypercube(9)
	g := nw.Graph()
	eng := NewEngine(nw)
	parts, err := eng.Parts()
	if err != nil {
		t.Fatal(err)
	}
	// Faults clustered around the complement of the first part's seed:
	// far from the certified seed, so several rounds stay clean.
	center := parts[0].Seed ^ int32(g.N()-1)
	F := syndrome.ClusterFaults(g, center, nw.Diagnosability())

	t.Run("with-shared-cert", func(t *testing.T) {
		checkSharedFinalGroup(t, nw, eng, F, BatchOptions{})
	})
}

// TestShareFinalPrefixGenericAndKernels pins the contract across every
// final-pass kernel: the generic pass (GenericFinal, and the augmented
// k-ary cube's mixed-radix declaration no kernel covers), the
// xor-cayley kernel (Q8) and the additive-rotate kernel (k-ary torus),
// under random fault loads.
func TestShareFinalPrefixGenericAndKernels(t *testing.T) {
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
			rng := rand.New(rand.NewSource(77))
			for trial := 0; trial < 3; trial++ {
				f := 1 + rng.Intn(tc.nw.Diagnosability())
				F := syndrome.RandomFaults(g.N(), f, rng)
				bopt := BatchOptions{Options: Options{GenericFinal: tc.generic}}
				checkSharedFinalGroup(t, tc.nw, eng, F, bopt)
			}
		})
	}
}

// TestShareFinalPrefixCompletePrefix pins the clean-to-termination
// case: the empty hypothesis's final pass never touches a hazard, so
// members adopt the whole result and the shared scan verdict, and
// never consult the syndrome.
func TestShareFinalPrefixCompletePrefix(t *testing.T) {
	nw := topology.NewHypercube(8)
	eng := NewEngine(nw)
	F := bitset.New(nw.Graph().N())
	checkSharedFinalGroup(t, nw, eng, F, BatchOptions{})

	// Directly: members of the empty hypothesis report zero final
	// look-ups of their own.
	var syns []syndrome.Syndrome
	for _, b := range sharedFinalBehaviors() {
		syns = append(syns, syndrome.NewLazy(F, b))
	}
	results := eng.DiagnoseBatch(syns, BatchOptions{ShareHypotheses: true})
	for i, r := range results[1:] {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i+1, r.Err)
		}
		if r.Stats.FinalLookups != 0 || r.Stats.SharedFinalLookups == 0 {
			t.Fatalf("member %d: final %d, shared %d; want complete prefix adoption",
				i+1, r.Stats.FinalLookups, r.Stats.SharedFinalLookups)
		}
		if r.Stats.TotalLookups != 0 || syns[i+1].Lookups() != 0 {
			t.Fatalf("member %d consulted its syndrome %d times, want 0", i+1, syns[i+1].Lookups())
		}
	}
}

// TestShareFinalPrefixHazardousSeed pins the empty-prefix case: when
// the certified seed itself borders a fault, even the pair scan is
// hazardous, no checkpoint is recorded, and members run (and account
// for) their full final pass.
func TestShareFinalPrefixHazardousSeed(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	eng := NewEngine(nw)
	parts, err := eng.Parts()
	if err != nil {
		t.Fatal(err)
	}
	// One fault adjacent to the certified part's seed, placed outside
	// every candidate part... the seed's lowest-bit neighbour is in the
	// same part for the range partition, so certification moves on; use
	// a neighbour across the top dimension instead, which lives far
	// outside part 0's id range.
	seed0 := parts[0].Seed
	F := bitset.New(g.N())
	F.Add(int(seed0) ^ (g.N() >> 1))

	// The general contract still holds (members simply share nothing)…
	checkSharedFinalGroup(t, nw, eng, F, BatchOptions{})

	// …and if part 0 still certified (the fault lives elsewhere), the
	// hazardous seed must have suppressed the checkpoint entirely.
	var syns []syndrome.Syndrome
	for _, b := range sharedFinalBehaviors() {
		syns = append(syns, syndrome.NewLazy(F, b))
	}
	results := eng.DiagnoseBatch(syns, BatchOptions{ShareHypotheses: true})
	if results[0].Err == nil && results[0].Stats.CertifiedPart == 0 {
		for i, r := range results[1:] {
			if r.Stats.SharedFinalLookups != 0 || r.Stats.SharedFinalRounds != 0 {
				t.Fatalf("member %d adopted a prefix (%d look-ups) from a hazardous seed",
					i+1, r.Stats.SharedFinalLookups)
			}
		}
	}
}

// TestShareFinalPrefixOnExternalPool pins the BatchPool plumbing: the
// two-phase grouped batch with prefix sharing behaves identically on a
// caller-supplied pool (the campaign.Runtime shape).
func TestShareFinalPrefixOnExternalPool(t *testing.T) {
	nw := topology.NewHypercube(8)
	delta := nw.Diagnosability()
	g := nw.Graph()
	eng := NewEngine(nw)
	F := syndrome.ClusterFaults(g, int32(g.N()-1), delta)
	var syns, refs []syndrome.Syndrome
	for _, b := range sharedFinalBehaviors() {
		syns = append(syns, syndrome.NewLazy(F, b))
		refs = append(refs, syndrome.NewLazy(F, b))
	}
	results := eng.DiagnoseBatch(syns, BatchOptions{
		ShareHypotheses: true, Pool: seqPool{eng},
	})
	shared := false
	for i, r := range results {
		want, _, wantErr := Diagnose(nw, refs[i])
		if (r.Err == nil) != (wantErr == nil) || (wantErr == nil && !r.Faults.Equal(want)) {
			t.Fatalf("syndrome %d: pooled prefix-shared batch diverged", i)
		}
		if i > 0 && r.Stats.SharedFinalLookups > 0 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("no member adopted a prefix on the external pool")
	}
}

// TestShareFinalPrefixWarmCache pins the cache composition: when the
// group representative is served from a warm result cache, no
// checkpoint gets recorded — members then have no prefix to adopt, so
// they must fall back to the cache themselves (their runs would be
// fully canonical) instead of degrading to full diagnoses.
func TestShareFinalPrefixWarmCache(t *testing.T) {
	nw := topology.NewHypercube(8)
	g := nw.Graph()
	eng := NewEngine(nw)
	F := syndrome.ClusterFaults(g, int32(g.N()-1), nw.Diagnosability())
	cache := NewResultCache(32)
	makeSyns := func() []syndrome.Syndrome {
		var syns []syndrome.Syndrome
		for _, b := range sharedFinalBehaviors() {
			syns = append(syns, syndrome.NewLazy(F, b))
		}
		return syns
	}

	// Warm the cache with every (hypothesis, behaviour) key.
	warm := makeSyns()
	for i, r := range eng.DiagnoseBatch(warm, BatchOptions{Options: Options{ResultCache: cache}}) {
		if r.Err != nil {
			t.Fatalf("warm-up %d: %v", i, r.Err)
		}
	}

	syns := makeSyns()
	results := eng.DiagnoseBatch(syns, BatchOptions{
		ShareHypotheses: true, Options: Options{ResultCache: cache},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("syndrome %d: %v", i, r.Err)
		}
		if !r.Faults.Equal(warm[i].(*syndrome.Lazy).Faults()) && r.Stats.FaultCount > 0 {
			t.Fatalf("syndrome %d: cached grouped batch misdiagnosed", i)
		}
		if got := syns[i].Lookups(); got != 0 {
			t.Fatalf("syndrome %d consulted %d look-ups on a warm cache, want 0", i, got)
		}
	}
}

// TestHypothesisMemoAcrossBatches pins the cross-batch half of the
// sharing contract: with a ResultCache, a hypothesis's scan verdict and
// final-prefix checkpoint outlive the batch that recorded them.
func TestHypothesisMemoAcrossBatches(t *testing.T) {
	nw := topology.NewHypercube(9)
	g := nw.Graph()
	eng := NewEngine(nw)
	parts, err := eng.Parts()
	if err != nil {
		t.Fatal(err)
	}
	// Far-clustered faults: a long behaviour-independent prefix.
	F := syndrome.ClusterFaults(g, parts[0].Seed^int32(g.N()-1), nw.Diagnosability())
	free := func(s syndrome.Syndrome) (*bitset.Set, *Stats, error) { return Diagnose(nw, s) }
	both := func(cache *ResultCache) BatchOptions {
		return BatchOptions{ShareHypotheses: true, Options: Options{ResultCache: cache}}
	}
	randoms := func(seeds ...uint64) []syndrome.Behavior {
		var bs []syndrome.Behavior
		for _, s := range seeds {
			bs = append(bs, syndrome.Random{Seed: s})
		}
		return bs
	}

	// Two sequential batches on one cache: the first (a singleton group)
	// records, the second has no representative and pays only suffixes.
	t.Run("second-batch-pays-suffix", func(t *testing.T) {
		cache := NewResultCache(16)
		first := checkBatchAgainstFree(t, "first", eng, F, randoms(1), both(cache), false, free)
		if first[0].Stats.CertLookups == 0 || first[0].Stats.SharedFinalLookups != 0 {
			t.Fatalf("singleton representative stats %+v are not canonical", first[0].Stats)
		}
		second := checkBatchAgainstFree(t, "second", eng, F, randoms(2, 3), both(cache), true, free)
		for i, r := range second {
			if r.Stats.CertLookups != 0 || r.Stats.SharedFinalLookups == 0 ||
				r.Stats.SharedFinalLookups != second[0].Stats.SharedFinalLookups {
				t.Fatalf("member %d: stats %+v; want the stored scan and prefix adopted", i, r.Stats)
			}
		}
		cs := cache.Stats()
		if cs.HypothesisHits != 1 || cs.HypothesisEntries != 1 || cs.HypothesisBytes <= 0 {
			t.Fatalf("cache stats %+v, want one hypothesis entry and one hit", cs)
		}
		// An exact repeat is a result-cache hit: no consultation, and the
		// member row it was memoised with.
		s := syndrome.NewLazy(F, syndrome.Random{Seed: 2})
		r := eng.DiagnoseBatch([]syndrome.Syndrome{s}, both(cache))[0]
		if s.Lookups() != 0 || r.Stats != second[0].Stats {
			t.Fatalf("repeat consulted %d times, stats %+v; want 0 and %+v", s.Lookups(), r.Stats, second[0].Stats)
		}
	})

	// Rebind flushes hypothesis entries; a cache not passed to Rebind
	// still never resumes across the churn, because entries are keyed on
	// the binding epoch.
	t.Run("rebind-flushes-epoch", func(t *testing.T) {
		eng := NewEngine(nw)
		flushed, unflushed := NewResultCache(16), NewResultCache(16)
		checkBatchAgainstFree(t, "record", eng, F, randoms(1), both(flushed), false, free)
		checkBatchAgainstFree(t, "record", eng, F, randoms(1), both(unflushed), false, free)
		gone := parts[len(parts)-1].Nodes[0] // outside part 0 and the far cluster
		rep, err := eng.Rebind(g.Remove([]int32{gone}, nil), flushed)
		if err != nil {
			t.Fatal(err)
		}
		if cs := flushed.Stats(); rep.CacheFlushed < 1 || cs.HypothesisEntries != 0 || cs.HypothesisBytes != 0 {
			t.Fatalf("rebind flushed %d, cache stats %+v; want the hypothesis entry flushed", rep.CacheFlushed, cs)
		}
		s := syndrome.NewLazy(F, syndrome.Random{Seed: 9})
		solo := syndrome.NewLazy(F, syndrome.Random{Seed: 9})
		r := eng.DiagnoseBatch([]syndrome.Syndrome{s}, both(unflushed))[0]
		want, wantStats, wantErr := eng.DiagnoseOpts(solo, Options{})
		if err := diffStats(r, want, wantStats, wantErr, false, false); err != nil {
			t.Fatalf("post-churn batch: %v", err)
		}
		if hits := unflushed.Stats().HypothesisHits; hits != 0 {
			t.Fatalf("%d hypothesis hits across a rebind", hits)
		}
	})

	// The checkpoints sit under the byte ceiling of the bound graph:
	// past it, least-recently-used hypothesis entries are evicted, and an
	// evicted hypothesis is simply recorded again.
	t.Run("byte-ceiling-evicts", func(t *testing.T) {
		cache := NewResultCache(1024)
		dist := g.BFSFrom(parts[0].Seed, nil)
		var syns []syndrome.Syndrome
		var hyps []*bitset.Set
		for v := range dist {
			if dist[v] >= 7 { // single far faults: near-complete prefixes
				F := bitset.New(g.N())
				F.Add(v)
				hyps = append(hyps, F)
				syns = append(syns, syndrome.NewLazy(F, syndrome.Mimic{}))
			}
		}
		for i, r := range eng.DiagnoseBatch(syns, both(cache)) {
			if r.Err != nil || !r.Faults.Equal(hyps[i]) {
				t.Fatalf("hypothesis %d misdiagnosed (%v)", i, r.Err)
			}
		}
		cs := cache.Stats()
		ceiling := hypothesisByteCeiling(g.N())
		if cs.HypothesisBytes > ceiling || cs.Evictions == 0 || cs.HypothesisEntries >= len(hyps) {
			t.Fatalf("cache stats %+v with %d hypotheses; want evictions under the %d-byte ceiling", cs, len(hyps), ceiling)
		}
		checkBatchAgainstFree(t, "evicted", eng, hyps[0], randoms(1, 2), both(cache), false, free)
	})
}

// TestShareFinalPrefixHypothesisWiderThanBinding is the regression pin
// for a hypothesis wider than the bound graph — one drawn before a
// Rebind shrank it. The prefix recorder used to index the adjacency
// with every hypothesised id and panic; a width mismatch now records an
// empty prefix, and the grouped batch matches solo diagnoses.
func TestShareFinalPrefixHypothesisWiderThanBinding(t *testing.T) {
	eng := NewEngine(topology.NewHypercube(6))
	if _, err := eng.Rebind(eng.Graph().Remove([]int32{5}, nil)); err != nil {
		t.Fatal(err)
	}
	F := bitset.New(64) // the pre-churn width; the survivor has 63 nodes
	F.Add(63)
	F.Add(20)
	for _, bopt := range []BatchOptions{
		{ShareHypotheses: true},
		{ShareHypotheses: true, Options: Options{ResultCache: NewResultCache(8)}},
	} {
		behaviors := []syndrome.Behavior{syndrome.Mimic{}, syndrome.AllOne{}}
		var syns []syndrome.Syndrome
		for _, b := range behaviors {
			syns = append(syns, syndrome.NewLazy(F, b))
		}
		for i, r := range eng.DiagnoseBatch(syns, bopt) {
			want, wantStats, wantErr := eng.DiagnoseOpts(syndrome.NewLazy(F, behaviors[i]), Options{})
			if err := diffStats(r, want, wantStats, wantErr, i > 0, false); err != nil {
				t.Fatalf("%+v syndrome %d: %v", bopt, i, err)
			}
		}
	}
}
