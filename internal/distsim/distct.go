package distsim

import (
	"errors"

	"comparisondiag/internal/baseline"
	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// Message kinds of the distributed extended-star protocol.
const (
	kindQueryDown uint8 = iota + 16 // A = root, B = branch<<2 | depth
	kindResultUp                    // A = root, B = branch<<2 | depth (result in List[0])
	kindVerdict                     // convergecast of faulty ids (List)
)

// DistCT is a distributed implementation of Chiang and Tan's
// extended-star diagnosis, the comparator of the paper's Conclusions.
// Every node sends a query down each branch of its extended star; the
// three branch testers perform their comparisons and route the results
// back; the root then applies the accusing/quiet rule to classify
// itself, and a BFS convergecast assembles the verdicts at node 0.
//
// Every node is diagnosed independently, so the tests performed total
// 3·n·N regardless of how many faults exist — the distributed analogue
// of consuming the whole syndrome table, and the contrast with the
// on-demand wave protocol.
type DistCT struct {
	e     *Engine
	g     *graph.Graph
	s     syndrome.Syndrome
	stars []*baseline.ExtendedStar

	// Per-root tallies of received branch results. branchBits keeps a
	// 6-bit slot per (root, branch): bits 0-2 the three test results,
	// bits 3-5 received flags.
	quiet, accusing, received []int32
	verdictFaulty             []bool
	branchBits                [][]uint8

	// BFS convergecast tree rooted at node 0 (communication layer).
	parent    []int32
	children  []int32
	remaining []int32
	collected [][]int32
	phase     int

	// Result is the fault set assembled at node 0.
	Result *bitset.Set
}

// NewDistCT prepares the protocol; stars[x] must be an extended star
// rooted at x whose branch count is at least the fault bound.
func NewDistCT(e *Engine, g *graph.Graph, s syndrome.Syndrome, stars []*baseline.ExtendedStar) *DistCT {
	// OnRound runs concurrently across nodes, so take a view that
	// tolerates concurrent Test calls (striped look-up counting).
	s = syndrome.ForConcurrent(s)
	n := g.N()
	d := &DistCT{
		e: e, g: g, s: s, stars: stars,
		quiet:         make([]int32, n),
		accusing:      make([]int32, n),
		received:      make([]int32, n),
		verdictFaulty: make([]bool, n),
		branchBits:    make([][]uint8, n),
		parent:        make([]int32, n),
		children:      make([]int32, n),
		remaining:     make([]int32, n),
		collected:     make([][]int32, n),
	}
	for u := range d.branchBits {
		d.branchBits[u] = make([]uint8, len(stars[u].Branches))
	}
	// Build the BFS convergecast tree rooted at 0.
	dist := g.BFSFrom(0, nil)
	for u := int32(0); int(u) < n; u++ {
		d.parent[u] = -1
		if u == 0 || dist[u] < 0 {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if dist[v] == dist[u]-1 {
				d.parent[u] = v
				break
			}
		}
	}
	for u := 0; u < n; u++ {
		if p := d.parent[u]; p >= 0 {
			d.children[p]++
		}
	}
	return d
}

// Init implements Program: every root queries the first hop of each of
// its branches.
func (d *DistCT) Init() []Message {
	var out []Message
	for x := int32(0); int(x) < d.g.N(); x++ {
		for bi, br := range d.stars[x].Branches {
			out = append(out, Message{From: x, To: br[0], Kind: kindQueryDown, A: x, B: int32(bi << 2)})
		}
	}
	return out
}

// OnRound implements Program.
func (d *DistCT) OnRound(u int32, in []Message) []Message {
	var out []Message
	for _, m := range in {
		switch m.Kind {
		case kindQueryDown:
			root, bi, depth := m.A, int(m.B>>2), int(m.B&3)
			br := d.stars[root].Branches[bi]
			// Perform this hop's comparison test.
			var res int
			switch depth {
			case 0: // u = a tests (x, b)
				res = d.s.Test(u, root, br[1])
			case 1: // u = b tests (a, c)
				res = d.s.Test(u, br[0], br[2])
			case 2: // u = c tests (b, e)
				res = d.s.Test(u, br[1], br[3])
			}
			d.e.CountTests(1)
			// Route the result back towards the root and forward the
			// query one hop deeper.
			up := root
			if depth > 0 {
				up = br[depth-1]
			}
			out = append(out, Message{From: u, To: up, Kind: kindResultUp, A: root, B: m.B, List: []int32{int32(res)}})
			if depth < 2 {
				out = append(out, Message{From: u, To: br[depth+1], Kind: kindQueryDown, A: root, B: int32(bi<<2 | (depth + 1))})
			}
		case kindResultUp:
			root, bi, depth := m.A, int(m.B>>2), int(m.B&3)
			if u != root {
				// Relay towards the root along the branch.
				br := d.stars[root].Branches[bi]
				up := root
				pos := branchIndex(br, u)
				if pos > 0 {
					up = br[pos-1]
				}
				out = append(out, Message{From: u, To: up, Kind: m.Kind, A: m.A, B: m.B, List: m.List})
				continue
			}
			// Tally at the root: a branch is quiet on (0,0,0) and
			// accusing on (1,0,0); we accumulate per-test and classify
			// once all three results of a branch arrived. To keep state
			// compact we count per-branch via bit tricks below.
			d.tally(root, bi, depth, m.List[0])
		case kindVerdict:
			d.collected[u] = append(d.collected[u], m.List...)
			d.remaining[u]--
			if d.remaining[u] == 0 {
				out = append(out, d.verdictUp(u)...)
			}
		}
	}
	return out
}

func (d *DistCT) tally(root int32, bi, depth int, res int32) {
	slot := d.branchBits[root][bi]
	slot |= uint8(res&1) << uint(depth)
	slot |= 1 << uint(3+depth)
	d.branchBits[root][bi] = slot
	if slot>>3 == 7 { // all three results in
		bits := slot & 7
		switch bits {
		case 0:
			d.quiet[root]++
		case 1: // t1=1, t2=t3=0
			d.accusing[root]++
		}
		d.received[root]++
		if int(d.received[root]) == len(d.stars[root].Branches) {
			d.verdictFaulty[root] = d.accusing[root] > d.quiet[root]
		}
	}
}

// OnQuiet implements Program: once all verdicts are computed, start the
// convergecast of faulty ids up the BFS tree to node 0.
func (d *DistCT) OnQuiet() []Message {
	if d.phase != 0 {
		return nil
	}
	d.phase = 1
	var out []Message
	for u := int32(0); int(u) < d.g.N(); u++ {
		d.remaining[u] = d.children[u]
		if d.remaining[u] == 0 {
			out = append(out, d.verdictUp(u)...)
		}
	}
	return out
}

func (d *DistCT) verdictUp(u int32) []Message {
	list := d.collected[u]
	if d.verdictFaulty[u] {
		list = append(list, u)
	}
	if u == 0 {
		d.Result = bitset.New(d.g.N())
		for _, x := range list {
			d.Result.Add(int(x))
		}
		return nil
	}
	return []Message{{From: u, To: d.parent[u], Kind: kindVerdict, List: list}}
}

func branchIndex(br [4]int32, u int32) int {
	for i, v := range br {
		if v == u {
			return i
		}
	}
	return -1
}

// ErrNoVerdict reports an incomplete run.
var ErrNoVerdict = errors.New("distsim: distributed CT produced no result")

// RunDistCT executes the distributed extended-star diagnosis with the
// given per-node stars and returns the fault set plus statistics.
func RunDistCT(g *graph.Graph, s syndrome.Syndrome, stars []*baseline.ExtendedStar, maxRounds int) (*bitset.Set, *Stats, error) {
	e := NewEngine(0)
	d := NewDistCT(e, g, s, stars)
	stats, err := e.Run(d, maxRounds)
	if err != nil {
		return nil, stats, err
	}
	if d.Result == nil {
		return nil, stats, ErrNoVerdict
	}
	return d.Result, stats, nil
}
