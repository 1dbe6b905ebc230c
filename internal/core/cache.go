package core

import (
	"container/list"
	"reflect"
	"sync"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
)

// ResultCache is an engine-level memo of complete diagnosis outcomes,
// keyed by the syndrome's identity: the packed fault-hypothesis words
// of a *syndrome.Lazy plus its faulty-tester behaviour, the effective
// fault bound and the certification strategy. Two lazy syndromes that
// agree on all of those serve byte-identical test tables, so the whole
// diagnosis — fault set, Stats, even the typed error — is a pure
// function of the key and can be replayed without consulting the
// syndrome at all.
//
// The cache is opt-in (Options.ResultCache) and only consulted on the
// engine serving path; the free functions stay paper-literal and
// always recompute. It is bounded (least-recently-used eviction at
// Capacity entries), safe for concurrent use from many Diagnose and
// DiagnoseBatch callers at once, and copy-clean: entries own private
// clones of both the key fault set and the result, and every hit is
// copied out again, so no cached state is ever aliased by callers or
// scratches.
//
// A hit returns the Stats of the populating run. Results and look-up
// counts are deterministic, so for a fixed engine and Options the
// replayed Stats are exactly what a fresh call would report. The
// syndrome's own Lookups counter does not advance on a hit —
// short-circuiting those consultations is the cache's entire point.
//
// Hypothesis entries. A grouped DiagnoseBatch (ShareHypotheses) passed
// a cache also keeps a second kind of entry:
// the behaviour-independent state of a fault hypothesis (hypState — the
// scan verdict and the final-prefix checkpoint), keyed on the fault set,
// effective bound, strategy and binding epoch, with no behaviour in the
// key. Later batches resume every syndrome of a known hypothesis from
// it, so a repeated hypothesis pays its scan and prefix once per cache
// residency rather than once per batch. Hypothesis entries share the
// LRU list and Capacity with result entries, keep their key as a
// member list, and additionally sit under a byte ceiling derived from
// the bound graph (hypothesisByteCeiling).
type ResultCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // *cacheEntry values, front = most recent
	byHash    map[uint64][]*list.Element
	hits      int64
	misses    int64
	evictions int64

	// The hypothesis tier: resident hypothesis entries, their retained
	// bytes (charged against hypothesisByteCeiling) and memo hits.
	hypEntries int
	hypBytes   int64
	hypHits    int64
}

// cacheEntry is one memoised diagnosis, or — when hyp is set — one
// memoised hypothesis (behaviour and faults nil, no result fields). All
// fields are immutable after insertion, so reads may continue after the
// cache lock is released. Rebind replaces entries rather than mutating
// them for the same reason.
type cacheEntry struct {
	hash     uint64
	faults   *bitset.Set // key: cloned fault hypothesis
	ids      []int32     // hypothesis entries' key: its members, ascending
	behavior syndrome.Behavior
	delta    int
	strategy Strategy
	epoch    uint64 // engine binding epoch the entry was produced under

	resFaults *bitset.Set // nil when the diagnosis errored
	stats     Stats
	err       error

	hyp  *hypState // hypothesis entries only
	size int64     // a hypothesis entry's retained bytes
}

// hypState is the behaviour-independent state of one fault hypothesis
// that a grouped DiagnoseBatch shares between its syndromes — within
// one batch, and through a ResultCache across batches. Immutable once
// shared.
type hypState struct {
	scan   *sharedScan  // nil when the representative's scan never completed
	prefix *finalPrefix // nil when no one could resume from it (a lone syndrome, no cache)
}

// hypEntryOverhead approximates the fixed bytes of one hypothesis entry
// (entry, list element, scan verdict, checkpoint headers).
const hypEntryOverhead = 384

// hypothesisScratchBudget scales the hypothesis tier's byte ceiling:
// stored checkpoints may retain at most this many Scratch footprints
// of the bound graph (≈ 3.4 MB on Q14).
const hypothesisScratchBudget = 16

// hypothesisByteCeiling bounds the bytes the hypothesis entries of a
// cache serving an n-node graph may retain. A checkpoint holds at most
// U's words, one parent per node and a frontier (≈ 8n bytes), less
// than a Scratch footprint (≈ 13n), so the ceiling admits at least
// hypothesisScratchBudget worst-case checkpoints. Keys are stored as
// member lists, not as dense bitsets: a hypothesis entry then retains
// less than the result entry it displaces from the LRU unless its
// checkpoint is large.
func hypothesisByteCeiling(n int) int64 {
	return hypothesisScratchBudget * ScratchFootprintBytes(n)
}

// DefaultCacheCapacity bounds a ResultCache constructed with a
// non-positive capacity.
const DefaultCacheCapacity = 1024

// NewResultCache returns an empty cache holding at most capacity
// diagnosis results (≤ 0 means DefaultCacheCapacity). Every completed
// diagnosis is admitted immediately.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &ResultCache{
		capacity: capacity,
		ll:       list.New(),
		byHash:   make(map[uint64][]*list.Element),
	}
}

// CacheStats is a point-in-time observability snapshot of a
// ResultCache.
type CacheStats struct {
	Hits, Misses, Evictions int64
	// Entries counts resident diagnosis results; Capacity bounds them
	// together with the hypothesis entries.
	Entries, Capacity int
	// HypothesisHits counts grouped-batch hypotheses served from a
	// hypothesis entry: their scan and final prefix were not redone.
	HypothesisHits int64
	// HypothesisEntries and HypothesisBytes are the resident hypothesis
	// entries and the bytes they retain, checkpoints included (bounded
	// by the byte ceiling of the bound graph).
	HypothesisEntries int
	HypothesisBytes   int64
}

// HitRate returns Hits/(Hits+Misses) in [0, 1], and 0 for a cache that
// has never been consulted — never NaN, so exporters may publish it
// unconditionally.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cache's counters. Safe for concurrent use.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len() - c.hypEntries, Capacity: c.capacity,
		HypothesisHits:    c.hypHits,
		HypothesisEntries: c.hypEntries,
		HypothesisBytes:   c.hypBytes,
	}
}

// cacheable reports whether the syndrome can act as a cache key: its
// behaviour must support Go equality (all of the package's behaviours
// are comparable structs; a hypothetical closure-backed behaviour is
// simply never cached rather than panicking on ==).
func cacheable(lz *syndrome.Lazy) bool {
	b := lz.Behavior()
	if b == nil {
		return false
	}
	return reflect.TypeOf(b).Comparable()
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit value into an FNV-1a accumulator bytewise.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// faultsHash hashes a packed fault hypothesis (FNV-1a over its words) —
// the grouping key of batch-shared certification and the first half of
// the result-cache key.
func faultsHash(faults *bitset.Set) uint64 {
	h := uint64(fnvOffset64)
	for _, w := range faults.Words() {
		h = fnvMix(h, w)
	}
	return h
}

// cacheHash extends faultsHash with the remaining key fields: the
// scalar key parts and the behaviour's name. Behaviours that differ
// only in name-invisible state (e.g. two Random seeds) land in one
// bucket and are separated by the equality walk.
func cacheHash(faults *bitset.Set, behavior syndrome.Behavior, delta int, strat Strategy) uint64 {
	h := faultsHash(faults)
	h = fnvMix(h, uint64(delta))
	h = fnvMix(h, uint64(strat))
	for _, ch := range []byte(behavior.Name()) {
		h ^= uint64(ch)
		h *= fnvPrime64
	}
	return h
}

// hypHash keys a hypothesis entry: the fault words (fh, their
// faultsHash, which the caller has already computed to group the
// batch), the bound and the strategy, and no behaviour. The kind check
// in the equality walk keeps the two entry kinds apart should their
// hashes collide.
func hypHash(fh uint64, delta int, strat Strategy) uint64 {
	return fnvMix(fnvMix(fh, uint64(delta)), uint64(strat))
}

// lookupHypothesis returns the memoised state of a fault hypothesis
// (fh its faultsHash) under the given effective bound, strategy and
// binding epoch, or nil. The returned state is immutable.
func (c *ResultCache) lookupHypothesis(faults *bitset.Set, fh uint64, delta int, strat Strategy, epoch uint64) *hypState {
	h := hypHash(fh, delta, strat)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byHash[h] {
		e := el.Value.(*cacheEntry)
		if e.hyp != nil && e.delta == delta && e.strategy == strat && e.epoch == epoch && sameMembers(e.ids, faults) {
			c.ll.MoveToFront(el)
			c.hypHits++
			return e.hyp
		}
	}
	return nil
}

// insertHypothesis memoises a hypothesis's shared state, which the
// caller must no longer modify. n is the bound graph's node count; it
// sets the byte ceiling, under which least-recently-used hypothesis
// entries are evicted. A concurrent duplicate keeps the first entry.
func (c *ResultCache) insertHypothesis(faults *bitset.Set, fh uint64, delta int, strat Strategy, epoch uint64, hs *hypState, n int) {
	h := hypHash(fh, delta, strat)
	e := &cacheEntry{
		hash: h, ids: faults.Members32(), delta: delta, strategy: strat, epoch: epoch,
		hyp: hs,
	}
	e.size = hypEntryOverhead + 4*int64(len(e.ids)) + hs.prefix.bytes()
	ceiling := hypothesisByteCeiling(n)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byHash[h] {
		old := el.Value.(*cacheEntry)
		if old.hyp != nil && old.delta == delta && old.strategy == strat && old.epoch == epoch && sameMembers(old.ids, faults) {
			return
		}
	}
	c.byHash[h] = append(c.byHash[h], c.ll.PushFront(e))
	c.hypEntries++
	c.hypBytes += e.size
	for c.ll.Len() > c.capacity {
		c.evict(c.ll.Back())
	}
	for el := c.ll.Back(); c.hypBytes > ceiling && el != nil; {
		prev := el.Prev()
		if el.Value.(*cacheEntry).hyp != nil {
			c.evict(el)
		}
		el = prev
	}
}

// sameMembers reports whether s holds exactly the ascending ids.
func sameMembers(ids []int32, s *bitset.Set) bool {
	if s.Count() != len(ids) {
		return false
	}
	for _, id := range ids {
		if int(id) >= s.Len() || !s.Contains(int(id)) {
			return false
		}
	}
	return true
}

// lookup returns the memoised entry for the syndrome under the given
// effective fault bound, strategy and engine binding epoch, promoting
// it to most-recently used. The epoch keys entries to one binding
// generation, so a diagnosis racing an Engine.Rebind can neither serve
// nor be served by results from the other side of the churn. The
// returned entry is immutable; callers copy out of it.
func (c *ResultCache) lookup(lz *syndrome.Lazy, delta int, strat Strategy, epoch uint64) (*cacheEntry, bool) {
	b := lz.Behavior()
	h := cacheHash(lz.Faults(), b, delta, strat)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byHash[h] {
		e := el.Value.(*cacheEntry)
		if e.delta == delta && e.strategy == strat && e.epoch == epoch && e.behavior == b && e.faults.Equal(lz.Faults()) {
			c.ll.MoveToFront(el)
			c.hits++
			return e, true
		}
	}
	c.misses++
	return nil, false
}

// insert memoises one diagnosis outcome, cloning the key and result so
// the entry shares no storage with the caller. A concurrent duplicate
// (two callers missing on the same key and both diagnosing) keeps the
// first entry; the outcomes are identical by construction.
func (c *ResultCache) insert(lz *syndrome.Lazy, delta int, strat Strategy, epoch uint64, faults *bitset.Set, stats *Stats, err error) {
	b := lz.Behavior()
	h := cacheHash(lz.Faults(), b, delta, strat)
	e := &cacheEntry{
		hash:     h,
		faults:   lz.Faults().Clone(),
		behavior: b,
		delta:    delta,
		strategy: strat,
		epoch:    epoch,
		err:      err,
	}
	if faults != nil {
		e.resFaults = faults.Clone()
	}
	if stats != nil {
		e.stats = *stats
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byHash[h] {
		old := el.Value.(*cacheEntry)
		if old.delta == delta && old.strategy == strat && old.epoch == epoch && old.behavior == b && old.faults.Equal(e.faults) {
			return
		}
	}
	c.byHash[h] = append(c.byHash[h], c.ll.PushFront(e))
	for c.ll.Len() > c.capacity {
		c.evict(c.ll.Back())
	}
}

// Rebind rewrites the cache for an engine rebound across a churn delta
// (normally invoked through Engine.Rebind, which passes the right
// arguments — in the growth direction the map is the total
// SurvivorToNew, so no entry is lost to missing ids). Entries that
// cannot survive the churn are flushed: every hypothesis entry (its
// checkpoint speaks about the old graph), any entry touching a gone id
// (in its key hypothesis, its result fault set, or its recorded seed),
// any errored or bound-tightened entry, and any entry whose hypothesis
// exceeds the new bound. The rest are replaced — never mutated, since
// hits read entries after the lock is released — by remapped clones in
// new-id space, keyed to the new epoch and bound: their fault sets are
// exactly what a fresh diagnosis of the same hypothesis would report
// (Theorem 1 makes the result a pure function of the hypothesis while
// it respects the bound). The remapped Stats keep the populating run's
// cost profile (look-up counts, parts scanned) from before the churn,
// with Delta/Degraded/EffectiveDelta rewritten to the new binding —
// degraded reports the rebound engine's stamp, so a full recovery
// clears the fields exactly as live diagnoses would. LRU order is reset
// wholesale.
func (c *ResultCache) Rebind(oldToNew []int32, newN, oldDelta, newDelta int, epoch uint64, degraded bool) (flushed, kept int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldLL := c.ll
	c.ll = list.New()
	c.byHash = make(map[uint64][]*list.Element)
	c.hypEntries, c.hypBytes = 0, 0
	for el := oldLL.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		ne, ok := remapEntry(e, oldToNew, newN, oldDelta, newDelta, epoch, degraded)
		if !ok {
			flushed++
			continue
		}
		c.byHash[ne.hash] = append(c.byHash[ne.hash], c.ll.PushBack(ne))
		kept++
	}
	return flushed, kept
}

// remapEntry builds the post-churn replacement for one entry, or
// reports that it must be flushed.
func remapEntry(e *cacheEntry, oldToNew []int32, newN, oldDelta, newDelta int, epoch uint64, degraded bool) (*cacheEntry, bool) {
	if e.hyp != nil || e.err != nil || e.delta != oldDelta || e.resFaults == nil {
		return nil, false
	}
	if int(e.stats.Seed) >= len(oldToNew) || oldToNew[e.stats.Seed] < 0 {
		return nil, false
	}
	if e.faults.Count() > newDelta {
		return nil, false
	}
	key, ok := remapSet(e.faults, oldToNew, newN)
	if !ok {
		return nil, false
	}
	res, ok := remapSet(e.resFaults, oldToNew, newN)
	if !ok {
		return nil, false
	}
	st := e.stats
	st.Seed = oldToNew[e.stats.Seed]
	st.Delta = newDelta
	st.Degraded = degraded
	if degraded {
		st.EffectiveDelta = newDelta
	} else {
		st.EffectiveDelta = 0
	}
	return &cacheEntry{
		hash:      cacheHash(key, e.behavior, newDelta, e.strategy),
		faults:    key,
		behavior:  e.behavior,
		delta:     newDelta,
		strategy:  e.strategy,
		epoch:     epoch,
		resFaults: res,
		stats:     st,
		err:       nil,
	}, true
}

// remapSet maps a bitset through the removal's id map; ok is false when
// any member was removed.
func remapSet(s *bitset.Set, oldToNew []int32, newN int) (*bitset.Set, bool) {
	out := bitset.New(newN)
	ok := true
	s.ForEach(func(i int) bool {
		if i >= len(oldToNew) || oldToNew[i] < 0 {
			ok = false
			return false
		}
		out.Add(int(oldToNew[i]))
		return true
	})
	return out, ok
}

// evict removes one element from the list, its hash chain and the
// hypothesis-tier census, and counts the eviction (called with the lock
// held).
func (c *ResultCache) evict(el *list.Element) {
	c.evictions++
	e := el.Value.(*cacheEntry)
	if e.hyp != nil {
		c.hypEntries--
		c.hypBytes -= e.size
	}
	c.ll.Remove(el)
	chain := c.byHash[e.hash]
	for i, cand := range chain {
		if cand == el {
			chain[i] = chain[len(chain)-1]
			chain = chain[:len(chain)-1]
			break
		}
	}
	if len(chain) == 0 {
		delete(c.byHash, e.hash)
	} else {
		c.byHash[e.hash] = chain
	}
}
