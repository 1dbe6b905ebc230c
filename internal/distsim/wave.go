package distsim

import (
	"errors"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// Message kinds of the wave protocol.
const (
	kindJoin   uint8 = iota // A = sender is the prospective parent
	kindChild               // child announcement to the parent
	kindReport              // convergecast: List carries accused nodes
)

// WaveSetBuilder is the distributed Set_Builder of the paper's
// Conclusions. A certified-healthy seed starts a join wave: each newly
// joined node tests its remaining neighbours against its parent and
// invites those that test 0; the invitations only ever reach healthy
// nodes, so the joined set is exactly the healthy component of the seed.
// A convergecast up the join tree then collects the accused neighbours —
// the fault set N of Theorem 1 — at the seed.
//
// Following the paper's modelling discussion, the protocol itself runs
// on the reliable communication layer; only the processors (the tested
// entities) are faulty. Tests are performed on demand, which is the
// distributed counterpart of Section 6's look-up economy.
type WaveSetBuilder struct {
	e    *Engine
	g    *graph.Graph
	s    syndrome.Syndrome
	seed int32

	joined    []bool
	parent    []int32
	children  []int32
	accused   [][]int32
	collected [][]int32
	remaining []int32
	phase     int

	// Result is the fault set gathered at the seed after Run.
	Result *bitset.Set
	// Depth is the growth phase length in rounds.
	Depth int
}

// NewWaveSetBuilder prepares the protocol on g with the given certified
// healthy seed.
func NewWaveSetBuilder(e *Engine, g *graph.Graph, s syndrome.Syndrome, seed int32) *WaveSetBuilder {
	// OnRound runs concurrently across nodes, so take a view that
	// tolerates concurrent Test calls (striped look-up counting).
	s = syndrome.ForConcurrent(s)
	n := g.N()
	w := &WaveSetBuilder{
		e: e, g: g, s: s, seed: seed,
		joined:    make([]bool, n),
		parent:    make([]int32, n),
		children:  make([]int32, n),
		accused:   make([][]int32, n),
		collected: make([][]int32, n),
		remaining: make([]int32, n),
	}
	for i := range w.parent {
		w.parent[i] = -1
	}
	return w
}

// Init implements Program: the seed performs its pair scan and invites
// the certified neighbours.
func (w *WaveSetBuilder) Init() []Message {
	w.joined[w.seed] = true
	adj := w.g.Neighbors(w.seed)
	certified := bitset.New(w.g.N())
	var tests int64
	for i := 0; i < len(adj); i++ {
		for j := i + 1; j < len(adj); j++ {
			if certified.Contains(int(adj[i])) && certified.Contains(int(adj[j])) {
				continue
			}
			tests++
			if w.s.Test(w.seed, adj[i], adj[j]) == 0 {
				certified.Add(int(adj[i]))
				certified.Add(int(adj[j]))
			}
		}
	}
	w.e.CountTests(tests)
	var out []Message
	for _, v := range adj {
		if certified.Contains(int(v)) {
			out = append(out, Message{From: w.seed, To: v, Kind: kindJoin})
		} else {
			w.accused[w.seed] = append(w.accused[w.seed], v)
		}
	}
	return out
}

// OnRound implements Program.
func (w *WaveSetBuilder) OnRound(u int32, in []Message) []Message {
	var out []Message
	// All inviters in this inbox are already-joined healthy nodes (an
	// invitation implies a 0-test by a healthy tester), so u need not
	// re-test them — a free reduction of the test volume.
	var inviters map[int32]bool
	for _, m := range in {
		if m.Kind == kindJoin {
			if inviters == nil {
				inviters = make(map[int32]bool, 4)
			}
			inviters[m.From] = true
		}
	}
	for _, m := range in {
		switch m.Kind {
		case kindJoin:
			if w.joined[u] {
				continue
			}
			w.joined[u] = true
			w.parent[u] = m.From // inbox sorted: least inviter wins
			out = append(out, Message{From: u, To: m.From, Kind: kindChild})
			var tests int64
			for _, x := range w.g.Neighbors(u) {
				if x == w.parent[u] || inviters[x] {
					continue
				}
				tests++
				if w.s.Test(u, x, w.parent[u]) == 0 {
					out = append(out, Message{From: u, To: x, Kind: kindJoin})
				} else {
					w.accused[u] = append(w.accused[u], x)
				}
			}
			w.e.CountTests(tests)
		case kindChild:
			w.children[u]++
		case kindReport:
			w.collected[u] = append(w.collected[u], m.List...)
			w.remaining[u]--
			if w.remaining[u] == 0 {
				out = append(out, w.reportUp(u)...)
			}
		}
	}
	return out
}

// reportUp merges u's own accusations with its children's and forwards
// them towards the seed; at the seed it finalises the result.
func (w *WaveSetBuilder) reportUp(u int32) []Message {
	list := append(append([]int32{}, w.accused[u]...), w.collected[u]...)
	if u == w.seed {
		w.finalize(list)
		return nil
	}
	return []Message{{From: u, To: w.parent[u], Kind: kindReport, List: list}}
}

func (w *WaveSetBuilder) finalize(list []int32) {
	w.Result = bitset.New(w.g.N())
	for _, x := range list {
		w.Result.Add(int(x))
	}
}

// OnQuiet implements Program: when the growth wave has stabilised, start
// the convergecast from the leaves of the join tree.
func (w *WaveSetBuilder) OnQuiet() []Message {
	if w.phase != 0 {
		return nil
	}
	w.phase = 1
	var out []Message
	for u := int32(0); int(u) < w.g.N(); u++ {
		if !w.joined[u] {
			continue
		}
		w.remaining[u] = w.children[u]
		if w.remaining[u] == 0 {
			out = append(out, w.reportUp(u)...)
		}
	}
	return out
}

// ErrSeedNotHealthy reports a protocol run that never produced a result
// (e.g. the seed was faulty and no convergecast completed).
var ErrSeedNotHealthy = errors.New("distsim: wave produced no result; was the seed certified healthy?")

// RunWave executes the full distributed Set_Builder diagnosis and
// returns the fault set together with the engine statistics.
func RunWave(g *graph.Graph, s syndrome.Syndrome, seed int32, maxRounds int) (*bitset.Set, *Stats, error) {
	e := NewEngine(0)
	w := NewWaveSetBuilder(e, g, s, seed)
	stats, err := e.Run(w, maxRounds)
	if err != nil {
		return nil, stats, err
	}
	if w.Result == nil {
		return nil, stats, ErrSeedNotHealthy
	}
	return w.Result, stats, nil
}
