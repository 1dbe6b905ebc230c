package core

import (
	"math/bits"
	"sync"

	"comparisondiag/internal/bitset"
)

// Scratch holds every buffer the diagnosis hot path needs, so that a
// warm scratch makes SetBuilderInto — and a whole DiagnoseGraph call
// when supplied via Options.Scratch — run without heap allocation:
//
//   - the U / Contributors bitsets and the Parent slice of Set_Builder,
//     plus its two frontier buffers;
//   - one reusable part mask for certification, populated and cleared
//     member-wise (O(|part|), not O(n)) between candidate parts;
//   - the part-neighbour buffer of the scan certificate;
//   - the output fault set and Stats of DiagnoseGraph.
//
// Reuse contract: results handed out against a Scratch
// (SetBuilderResult from SetBuilderInto, the fault set and Stats from a
// Diagnose call with Options.Scratch set) are views into these buffers.
// They stay valid until the scratch is used again; callers that need
// them longer must copy (bitset.Clone, slices.Clone) first, and must
// not modify them in place. A Scratch belongs to one goroutine at a
// time.
type Scratch struct {
	n            int
	res          SetBuilderResult
	u            *bitset.Set
	contributors *bitset.Set
	parent       []int32
	frontier     []int32
	next         []int32
	added        *bitset.Set // nodes admitted this round, drained in order
	mask         *bitset.Set // kept empty between certifications
	fset         *bitset.Set // frontier membership for inverted-scan rounds
	prev         []uint64    // round-start U snapshot (XOR-Cayley kernel)
	ns           []int32
	nbuf         []int32 // neighbour-generation buffer (implicit adjacency)
	faults       *bitset.Set
	stats        Stats

	// prefixRec / prefixRes carry a shared-final-prefix checkpoint
	// (see finalPrefix) into the next final pass: prefixRec asks the
	// pass to record the checkpoint at the behaviour-independence
	// boundary, prefixRes asks it to resume from one. Both are set and
	// cleared around the pass by diagnoseInto — they are per-call
	// plumbing, not reusable scratch state.
	prefixRec *finalPrefix
	prefixRes *finalPrefix

	// hazard is the recorder's F ∪ N(F) mask (see beginPrefix), kept
	// here so a stored checkpoint carries no recording-only state.
	hazard []uint64

	// finalWorkers asks the next word-kernel final pass to split its
	// rounds across this many goroutines (runWordKernel). Like the
	// prefix fields it is per-call plumbing, set and cleared around the
	// pass by diagnoseInto.
	finalWorkers int

	// pnext / pnbuf are the per-worker next-frontier and
	// neighbour-generation buffers of parallel word-kernel rounds,
	// grown on demand and reused across rounds and calls.
	pnext [][]int32
	pnbuf [][]int32
}

// NewScratch returns a Scratch for graphs on n nodes. The mask and
// fault-set buffers are allocated lazily, so a scratch used only for
// SetBuilderInto never pays for them.
func NewScratch(n int) *Scratch {
	sc := &Scratch{}
	sc.init(n)
	return sc
}

func (sc *Scratch) init(n int) {
	sc.n = n
	sc.u = bitset.New(n)
	sc.contributors = bitset.New(n)
	sc.parent = make([]int32, n)
	for i := range sc.parent {
		sc.parent[i] = -1
	}
	sc.frontier = sc.frontier[:0]
	sc.next = sc.next[:0]
	sc.added = bitset.New(n)
	sc.mask = nil
	sc.fset = nil
	sc.prev = nil
	sc.hazard = nil
	sc.ns = sc.ns[:0]
	sc.nbuf = sc.nbuf[:0]
	sc.faults = nil
}

// ensure makes the scratch usable for a graph on n nodes, reallocating
// only on a capacity change.
func (sc *Scratch) ensure(n int) {
	if sc.n != n {
		sc.init(n)
	}
}

// resetTree clears the previous Set_Builder state: Parent entries are
// reset member-wise from the old U when it is sparse (only nodes that
// joined U ever get a parent), or with one straight fill when U is
// dense — after a successful diagnosis U holds nearly every node, and
// the bit-extraction bookkeeping costs several times the fill itself.
func (sc *Scratch) resetTree() {
	if sc.u.Count() >= sc.n/4 {
		for i := range sc.parent {
			sc.parent[i] = -1
		}
	} else {
		for wi, w := range sc.u.Words() {
			for w != 0 {
				sc.parent[wi<<6+bits.TrailingZeros64(w)] = -1
				w &= w - 1
			}
		}
	}
	sc.u.Clear()
	sc.contributors.Clear()
	// added self-drains every round and fset is cleared member-wise after
	// every inverted round; clear both defensively in case an earlier run
	// aborted mid-round (e.g. a panicking syndrome).
	sc.added.Clear()
	if sc.fset != nil {
		sc.fset.Clear()
	}
}

// workerBufs returns the per-worker next-frontier and neighbour
// buffers, grown to hold at least workers entries each.
func (sc *Scratch) workerBufs(workers int) (pnext, pnbuf [][]int32) {
	for len(sc.pnext) < workers {
		sc.pnext = append(sc.pnext, nil)
	}
	for len(sc.pnbuf) < workers {
		sc.pnbuf = append(sc.pnbuf, nil)
	}
	return sc.pnext, sc.pnbuf
}

// fsetBuf returns the reusable (empty) frontier-membership set.
func (sc *Scratch) fsetBuf() *bitset.Set {
	if sc.fset == nil {
		sc.fset = bitset.New(sc.n)
	}
	return sc.fset
}

// prevBuf returns the reusable round-start U snapshot buffer.
func (sc *Scratch) prevBuf() []uint64 {
	if sc.prev == nil {
		sc.prev = make([]uint64, (sc.n+63)/64)
	}
	return sc.prev
}

// maskBuf returns the reusable (empty) part mask.
func (sc *Scratch) maskBuf() *bitset.Set {
	if sc.mask == nil {
		sc.mask = bitset.New(sc.n)
	}
	return sc.mask
}

// faultsBuf returns the reusable output fault set.
func (sc *Scratch) faultsBuf() *bitset.Set {
	if sc.faults == nil {
		sc.faults = bitset.New(sc.n)
	}
	return sc.faults
}

// ScratchFootprintBytes estimates the resident size of one fully
// populated Scratch for graphs on n nodes: the dense per-node arrays
// every diagnosis touches — the parent tree (4 bytes/node), the two
// frontier buffers (worst case 4 bytes/node each), and the eight
// word-granular sets and snapshots (U, Contributors, added, part mask,
// frontier membership, round-start U snapshot, output fault set, and
// the shared-prefix recorder's hazard mask — one bit/node each). Engines keep one scratch per serving worker in their
// pool, so a deployment's scratch budget is this figure times the pool
// size; cmd/topoinfo prints it next to the adjacency memory models
// (ROADMAP: dense scratch is fine at Q20, revisit at Q24).
func ScratchFootprintBytes(n int) int64 {
	words := int64((n + 63) / 64)
	return 3*4*int64(n) + 8*8*words
}

// scratchPool recycles Scratches across Diagnose calls so steady-state
// diagnosis on a fixed-size graph allocates nothing per call beyond the
// caller-owned copies of its results.
var scratchPool sync.Pool

func getScratch(n int) *Scratch {
	if v := scratchPool.Get(); v != nil {
		sc := v.(*Scratch)
		sc.ensure(n)
		return sc
	}
	return NewScratch(n)
}

func putScratch(sc *Scratch) { scratchPool.Put(sc) }
