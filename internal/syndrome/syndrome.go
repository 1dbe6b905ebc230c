// Package syndrome implements the comparison (MM) diagnosis model: test
// results s_u(v, w) produced by nodes comparing pairs of neighbours.
//
// The package deliberately separates *truth* from *testimony*:
//
//   - if the tester u is healthy, s_u(v, w) = 0 iff both v and w are
//     healthy (the model's reliability assumption: a faulty node always
//     answers incorrectly and two faulty nodes never answer identically);
//   - if the tester u is faulty, s_u(v, w) is arbitrary — modelled by a
//     pluggable Behaviour so correctness can be asserted under several
//     adversaries.
//
// Syndromes are served lazily: a test result is computed on demand and
// every consultation is counted. This mirrors the paper's Section 6
// argument that Set_Builder consults far fewer entries than the full
// syndrome table, and lets benchmarks report exact look-up counts.
package syndrome

import (
	"sync/atomic"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
)

// Syndrome supplies MM-model test results.
//
// Counting contract: every Test invocation — on the syndrome itself or
// on any view derived from it — advances the Lookups counter by exactly
// one.
//
// Concurrency contract: concurrent drivers (the BSP simulator) obtain a
// view via ForConcurrent before spawning workers. Lazy uses an
// unsynchronised counter for direct sequential Test calls and hands out
// a striped view; any other implementation must be safe for concurrent
// Test calls itself (as the materialised Table is) — ForConcurrent
// passes it through unchanged.
type Syndrome interface {
	// Test returns s_u(v, w) ∈ {0, 1}. v and w must be distinct
	// neighbours of u; the result is symmetric in v and w.
	Test(u, v, w int32) int
	// Lookups returns the number of Test invocations since the last
	// ResetLookups, including those made through concurrent views.
	Lookups() int64
	// ResetLookups zeroes the look-up counter.
	ResetLookups()
}

// lookupShards is the stripe count for concurrent counting. A
// small power of two: enough stripes that concurrent testers (which
// stripe by tester id) rarely collide, few enough that summing on
// Lookups stays trivial.
const lookupShards = 16

// paddedCount is a cache-line-padded atomic counter so that distinct
// stripes never share a line (no false sharing between workers).
type paddedCount struct {
	v atomic.Int64
	_ [56]byte
}

// Lazy is a Syndrome computed on demand from a fault set and a faulty-
// tester Behaviour.
//
// Counting is deliberately cheap: Test on the Lazy itself bumps a plain
// (non-atomic) counter, so the sequential hot path — Set_Builder, part
// certification, the baselines — pays no atomic per look-up. A Lazy may
// therefore be driven by only one goroutine at a time. Concurrent
// callers take a striped ForConcurrent view, which counts into the same
// total, so Lookups is exact in every mode.
type Lazy struct {
	faults   *bitset.Set
	behavior Behavior
	seq      int64 // plain counter: Test calls made directly on the Lazy
	// stripes is allocated on first ForConcurrent, so the many
	// short-lived sequential Lazies (one per campaign trial) never pay
	// for the padded stripe array.
	stripes atomic.Pointer[[lookupShards]paddedCount]
}

// stripeArr returns the stripe array, allocating it on first use.
func (l *Lazy) stripeArr() *[lookupShards]paddedCount {
	if p := l.stripes.Load(); p != nil {
		return p
	}
	arr := new([lookupShards]paddedCount)
	if l.stripes.CompareAndSwap(nil, arr) {
		return arr
	}
	return l.stripes.Load()
}

// NewLazy builds a lazy syndrome for the given fault set. behavior
// governs answers of faulty testers; nil defaults to AllZero (the
// adversary that maximally imitates health).
func NewLazy(faults *bitset.Set, behavior Behavior) *Lazy {
	if behavior == nil {
		behavior = AllZero{}
	}
	return &Lazy{faults: faults, behavior: behavior}
}

// test computes the result without counting.
func (l *Lazy) test(u, v, w int32) int {
	if v > w {
		v, w = w, v
	}
	truth := 0
	if l.faults.Contains(int(v)) || l.faults.Contains(int(w)) {
		truth = 1
	}
	if !l.faults.Contains(int(u)) {
		return truth
	}
	return l.behavior.Result(u, v, w, truth)
}

// Test implements Syndrome. Single-goroutine with respect to other
// direct Test/Lookups calls on this Lazy; concurrent callers must use
// a ForConcurrent view instead.
func (l *Lazy) Test(u, v, w int32) int {
	l.seq++
	return l.test(u, v, w)
}

// Lookups implements Syndrome: direct look-ups plus everything counted
// through concurrent views.
func (l *Lazy) Lookups() int64 {
	total := l.seq
	if p := l.stripes.Load(); p != nil {
		for i := range p {
			total += p[i].v.Load()
		}
	}
	return total
}

// ResetLookups implements Syndrome.
func (l *Lazy) ResetLookups() {
	l.seq = 0
	if p := l.stripes.Load(); p != nil {
		for i := range p {
			p[i].v.Store(0)
		}
	}
}

// Faults exposes the underlying fault set (read-only use).
func (l *Lazy) Faults() *bitset.Set { return l.faults }

// Behavior exposes the faulty-tester behaviour the syndrome was built
// with (read-only use). Together with Faults it is the syndrome's whole
// identity: two Lazies agreeing on both serve identical test tables,
// which is what engine-level result caching keys on.
func (l *Lazy) Behavior() Behavior { return l.behavior }

// concurrentLazy is a view of a Lazy that is safe for concurrent Test
// calls from many goroutines at once: counts go to atomic stripes keyed
// by the tester id, so callers testing from different nodes (the BSP
// simulator's per-node programs) almost never contend on a line.
type concurrentLazy struct {
	parent  *Lazy
	stripes *[lookupShards]paddedCount
}

func (c concurrentLazy) Test(u, v, w int32) int {
	c.stripes[int(u)&(lookupShards-1)].v.Add(1)
	return c.parent.test(u, v, w)
}

func (c concurrentLazy) Lookups() int64 { return c.parent.Lookups() }
func (c concurrentLazy) ResetLookups()  { c.parent.ResetLookups() }

// ForConcurrent returns a view of s that tolerates concurrent Test
// calls while still advancing s's Lookups counter exactly once per
// test. For a *Lazy the view stripes counts by tester id; any other
// implementation is returned unchanged and is assumed to be safe for
// concurrent use itself (e.g. Table, which counts atomically).
func ForConcurrent(s Syndrome) Syndrome {
	if l, ok := s.(*Lazy); ok {
		return concurrentLazy{parent: l, stripes: l.stripeArr()}
	}
	return s
}

// ForEachTest enumerates every test of the complete syndrome table of g:
// for each node u and each unordered pair {v, w} of its neighbours it
// calls f(u, v, w) with v < w. It returns early if f returns false.
// The total number of enumerated tests is Σ_u C(deg(u), 2). The
// adjacency may be CSR-backed or an implicit generator; enumeration
// order is identical either way.
func ForEachTest(g graph.Adjacencer, f func(u, v, w int32) bool) {
	var buf []int32
	for u := int32(0); int(u) < g.N(); u++ {
		buf = g.AppendNeighbors(u, buf)
		adj := buf
		for i := 0; i < len(adj); i++ {
			for j := i + 1; j < len(adj); j++ {
				if !f(u, adj[i], adj[j]) {
					return
				}
			}
		}
	}
}

// TableSize returns the number of entries in the complete syndrome table
// of g: Σ_u C(deg(u), 2). This is the quantity a full-table algorithm
// (such as Chiang–Tan's) must materialise and consult.
func TableSize(g graph.Adjacencer) int64 {
	var total int64
	for u := int32(0); int(u) < g.N(); u++ {
		d := int64(g.Degree(u))
		total += d * (d - 1) / 2
	}
	return total
}

// Consistent reports whether the fault-set hypothesis F is consistent
// with the syndrome s on graph g: every test by a node outside F must
// equal the truth implied by F. (Tests by members of F are arbitrary
// under the model and impose no constraint.)
func Consistent(g graph.Adjacencer, s Syndrome, F *bitset.Set) bool {
	ok := true
	ForEachTest(g, func(u, v, w int32) bool {
		if F.Contains(int(u)) {
			return true
		}
		want := 0
		if F.Contains(int(v)) || F.Contains(int(w)) {
			want = 1
		}
		if s.Test(u, v, w) != want {
			ok = false
			return false
		}
		return true
	})
	return ok
}
