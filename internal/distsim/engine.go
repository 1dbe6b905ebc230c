// Package distsim provides a deterministic bulk-synchronous (BSP)
// message-passing simulator and distributed implementations of the two
// diagnosis approaches, reproducing the direction sketched in the
// paper's Conclusions: self-diagnosis should be computed by the system
// itself, and a distributed Set_Builder consults far fewer test results
// than a distributed extended-star algorithm.
//
// The simulator counts rounds, messages and comparison tests, and models
// the paper's one-port concern ("a node can only send one message at any
// time") by charging each round the maximum number of messages any
// single node emitted.
package distsim

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"comparisondiag/internal/core"
)

// Message is one point-to-point message delivered at the next round.
type Message struct {
	From, To int32
	Kind     uint8
	A, B     int32
	List     []int32 // bulk payload (convergecast reports)
}

// Program is a node-level protocol executed by the engine. An
// implementation keeps its per-node state in arrays indexed by node id;
// OnRound for distinct nodes may run concurrently, so a node must only
// touch its own state.
type Program interface {
	// Init produces the protocol's initial messages (round 0).
	Init() []Message
	// OnRound processes node u's inbox (sorted by sender, kind,
	// payload) and returns u's outgoing messages.
	OnRound(u int32, in []Message) []Message
	// OnQuiet is invoked when no messages are in flight; returning
	// messages starts a new phase, returning none halts the run.
	OnQuiet() []Message
}

// Stats aggregates the cost of a protocol run.
type Stats struct {
	Rounds      int   // BSP supersteps executed
	Messages    int64 // total messages delivered
	Records     int64 // total payload items moved (List lengths + 1 each)
	Tests       int64 // comparison tests performed (protocol-reported)
	OnePortTime int64 // Σ over rounds of max messages sent by one node
}

// Engine runs a Program; the program holds the graph it simulates.
type Engine struct {
	stats   Stats
	tests   atomic.Int64 // updated concurrently from OnRound callbacks
	workers int
}

// NewEngine creates an engine; workers ≤ 0 means GOMAXPROCS, and
// requests above it are clamped (core.ClampWorkers) — simulator
// goroutines beyond the scheduler's parallelism only add coordination
// overhead.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: core.ClampWorkers(workers)}
}

// CountTests lets protocols report comparison tests they performed.
// Safe for concurrent use from OnRound callbacks.
func (e *Engine) CountTests(n int64) { e.tests.Add(n) }

// ErrRoundLimit reports that the protocol did not converge within the
// round budget.
var ErrRoundLimit = errors.New("distsim: round limit exceeded")

// Run drives the program to quiescence and returns the cost statistics.
func (e *Engine) Run(p Program, maxRounds int) (*Stats, error) {
	pending := p.Init()
	for {
		if len(pending) == 0 {
			pending = p.OnQuiet()
			if len(pending) == 0 {
				s := e.stats
				s.Tests = e.tests.Load()
				return &s, nil
			}
		}
		if e.stats.Rounds >= maxRounds {
			return nil, ErrRoundLimit
		}
		e.stats.Rounds++
		e.account(pending)

		// Deliver: group by recipient, sort each inbox for determinism.
		inboxes := make(map[int32][]Message, len(pending))
		for _, m := range pending {
			inboxes[m.To] = append(inboxes[m.To], m)
		}
		active := make([]int32, 0, len(inboxes))
		for u := range inboxes {
			active = append(active, u)
		}
		slices.Sort(active)
		for _, u := range active {
			slices.SortFunc(inboxes[u], func(a, b Message) int {
				if a.From != b.From {
					return int(a.From - b.From)
				}
				if a.Kind != b.Kind {
					return int(a.Kind) - int(b.Kind)
				}
				if a.A != b.A {
					return int(a.A - b.A)
				}
				return int(a.B - b.B)
			})
		}

		// Process active nodes in parallel; collect outputs per node and
		// merge in node order so the result is deterministic.
		outs := make([][]Message, len(active))
		var wg sync.WaitGroup
		chunk := (len(active) + e.workers - 1) / e.workers
		for w := 0; w < e.workers; w++ {
			lo := w * chunk
			if lo >= len(active) {
				break
			}
			hi := lo + chunk
			if hi > len(active) {
				hi = len(active)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					outs[i] = p.OnRound(active[i], inboxes[active[i]])
				}
			}(lo, hi)
		}
		wg.Wait()

		pending = pending[:0]
		var maxSent int
		for _, out := range outs {
			if len(out) > maxSent {
				maxSent = len(out)
			}
			pending = append(pending, out...)
		}
		e.stats.OnePortTime += int64(maxSent)
	}
}

// account records message and record counts for a batch being
// delivered.
func (e *Engine) account(ms []Message) {
	e.stats.Messages += int64(len(ms))
	for _, m := range ms {
		e.stats.Records += int64(1 + len(m.List))
	}
}
