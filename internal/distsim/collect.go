package distsim

import (
	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// kindSyndromeUp carries collected test results towards node 0.
const kindSyndromeUp uint8 = 32

// CentralCollect models the setting the paper contrasts itself with in
// the Conclusions: a *centralised* diagnoser. Every node performs its
// complete set of comparison tests, the results are convergecast up a
// BFS tree to node 0 (each result is one payload record on every hop it
// travels), and the centre then runs the sequential algorithm locally.
//
// The interesting output is the ledger: the whole syndrome must cross
// the network before diagnosis can even start, whereas the wave
// protocol tests and moves only what the diagnosis demands.
type CentralCollect struct {
	e *Engine
	g *graph.Graph
	s syndrome.Syndrome

	parent    []int32
	children  []int32
	remaining []int32
	payload   [][]int32
	phase     int

	// Collected is the number of test results assembled at node 0.
	Collected int
	done      bool
}

// NewCentralCollect prepares the collection protocol.
func NewCentralCollect(e *Engine, g *graph.Graph, s syndrome.Syndrome) *CentralCollect {
	// OnRound runs concurrently across nodes, so take a view that
	// tolerates concurrent Test calls (striped look-up counting).
	s = syndrome.ForConcurrent(s)
	n := g.N()
	c := &CentralCollect{
		e: e, g: g, s: s,
		parent:    make([]int32, n),
		children:  make([]int32, n),
		remaining: make([]int32, n),
		payload:   make([][]int32, n),
	}
	dist := g.BFSFrom(0, nil)
	for u := int32(0); int(u) < n; u++ {
		c.parent[u] = -1
		if u == 0 || dist[u] < 0 {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if dist[v] == dist[u]-1 {
				c.parent[u] = v
				break
			}
		}
	}
	for u := 0; u < n; u++ {
		if p := c.parent[u]; p >= 0 {
			c.children[p]++
		}
	}
	return c
}

// localVector performs node u's complete test set and returns the
// results as payload records.
func (c *CentralCollect) localVector(u int32) []int32 {
	adj := c.g.Neighbors(u)
	out := make([]int32, 0, len(adj)*(len(adj)-1)/2)
	for i := 0; i < len(adj); i++ {
		for j := i + 1; j < len(adj); j++ {
			out = append(out, int32(c.s.Test(u, adj[i], adj[j])))
		}
	}
	c.e.CountTests(int64(len(out)))
	return out
}

// Init implements Program: every node performs its tests; leaves start
// the convergecast at once.
func (c *CentralCollect) Init() []Message {
	var out []Message
	for u := int32(0); int(u) < c.g.N(); u++ {
		c.payload[u] = c.localVector(u)
		c.remaining[u] = c.children[u]
	}
	for u := int32(1); int(u) < c.g.N(); u++ {
		if c.remaining[u] == 0 && c.parent[u] >= 0 {
			out = append(out, Message{From: u, To: c.parent[u], Kind: kindSyndromeUp, List: c.payload[u]})
		}
	}
	if c.g.N() == 1 {
		c.finish()
	}
	return out
}

// OnRound implements Program.
func (c *CentralCollect) OnRound(u int32, in []Message) []Message {
	var out []Message
	for _, m := range in {
		if m.Kind != kindSyndromeUp {
			continue
		}
		c.payload[u] = append(c.payload[u], m.List...)
		c.remaining[u]--
		if c.remaining[u] == 0 {
			if u == 0 {
				c.finish()
			} else {
				out = append(out, Message{From: u, To: c.parent[u], Kind: kindSyndromeUp, List: c.payload[u]})
			}
		}
	}
	return out
}

func (c *CentralCollect) finish() {
	c.Collected = len(c.payload[0])
	c.done = true
}

// OnQuiet implements Program.
func (c *CentralCollect) OnQuiet() []Message { return nil }

// RunCentralCollect executes the collection and then the sequential
// diagnosis at the centre, returning the fault set, the collection
// ledger, and the number of syndrome entries assembled centrally.
func RunCentralCollect(g *graph.Graph, s syndrome.Syndrome, delta int, parts []topology.Part, maxRounds int) (*bitset.Set, *Stats, error) {
	e := NewEngine(0)
	c := NewCentralCollect(e, g, s)
	stats, err := e.Run(c, maxRounds)
	if err != nil {
		return nil, stats, err
	}
	// The centre now holds the complete syndrome; run the sequential
	// procedure (its further look-ups are central, not network traffic).
	// This is a one-shot diagnosis per collection wave, so the free
	// function with its process-wide scratch pool is the right shape.
	faults, _, err := core.DiagnoseGraph(g, delta, parts, s, core.Options{})
	if err != nil {
		return nil, stats, err
	}
	return faults, stats, nil
}
