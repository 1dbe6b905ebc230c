package core

import (
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// wordRounder is a structure kernel for the final (unrestricted)
// Set_Builder pass, bound once to a graph whose algebraic structure a
// graph.CayleyDescriptor describes: one word-parallel growth round
// against the fixed round-start frontier bitset fw, admitting into
// uw/parent via l and returning the admission count. The driver
// (runFinalPass) owns everything else — the U_1 pair scan, the
// sorted-frontier gate, the sparse sweep and dense complement rounds,
// the round-start snapshot and next-frontier extraction, and the
// contributor reconstruction — so a new structure family only has to
// supply its round permutation schedule. A kernel must leave the pass's
// output — U, Parent, Contributors, Rounds, AllHealthy AND the syndrome
// look-up count — bit-identical to the reference SetBuilder:
// specialisation changes throughput, never answers.
//
// round contract: for every candidate v ∉ U with a neighbour in the
// frontier, test v by its frontier neighbours in ascending node order,
// stopping at the first 0 answer (admission: set v's bit in uw, record
// parent[v], count it). Admissions must be visible immediately, so a
// node admitted by one step is excluded as candidate from every later
// step of the same round — the reference pass's prefix-until-0
// suppression (see runFinalPass and the per-kernel order proofs).
type wordRounder interface {
	// Name is the observability tag reported by Engine.KernelName and
	// the CLI tools, e.g. "xor-cayley[multi-bit]".
	Name() string
	round(fw, uw []uint64, parent []int32, l *syndrome.Lazy) int
	// sweepThreshold is the frontier size above which the kernel's
	// word-parallel round beats the reference sweep, fixed at bind time
	// (see sweepThresholdFor); smaller frontiers take the sweep.
	sweepThreshold() int
}

// sweepThresholdFor converts a kernel's fixed round cost (word visits
// weighted by per-word permute work) into the frontier size above which
// the word-parallel path wins. The sweep spends ~|frontier|·deg probes
// per round (CSR read + bitset test each); a word visit costs a couple
// probes' worth of ALU work, hence the factor. Degree ties the two:
// dense small graphs (augmented cubes: deg ≈ word count) cross over
// much later than big sparse ones, which is what the old flat
// words-count gate got wrong. The word floor stays: below one word per
// frontier node the permutes cannot pay for themselves.
func sweepThresholdFor(roundCost int, a graph.Adjacencer) int {
	words := (a.N() + 63) / 64
	deg := a.MaxDegree()
	if deg == 0 {
		return words
	}
	t := 2 * roundCost / deg
	if t < words {
		t = words
	}
	return t
}

// kernelBinder is one registry entry: bind inspects a descriptor and
// returns a kernel when it can serve (descriptor family matches, graph
// meets the kernel's floor), or nil to pass.
type kernelBinder struct {
	family string
	bind   func(desc graph.CayleyDescriptor, a graph.Adjacencer) wordRounder
}

// finalKernelRegistry is consulted in priority order at engine bind
// time: the XOR kernel first (cheapest per-round permutes), then the
// additive-rotate kernel for tori. Every other structure — augmented
// k-ary cubes' mixed-radix descriptors included — serves the generic
// pass. Adding a kernel for a new structure family means implementing
// a wordRounder for a descriptor type in internal/graph, a binder here,
// and a declaration in internal/topology — see docs/kernels.md.
var finalKernelRegistry = []kernelBinder{
	{"xor-cayley", bindXORKernel},
	{"additive-rotate", bindAdditiveKernel},
}

// bindFinalKernel consults the registry in priority order. A nil result
// means no kernel fits and the engine serves the generic pass
// (runFinalPass with a nil rounder). Callers must have validated the
// descriptor against the graph first (graph.VerifyCayley, or a
// detection probe): binders trust the descriptor's shape claims beyond
// cheap sanity checks.
func bindFinalKernel(desc graph.CayleyDescriptor, a graph.Adjacencer) wordRounder {
	if desc == nil {
		return nil
	}
	for _, kb := range finalKernelRegistry {
		if k := kb.bind(desc, a); k != nil {
			return k
		}
	}
	return nil
}
