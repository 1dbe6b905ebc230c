// Package baseline implements the comparator algorithms the paper
// measures itself against: the Chiang–Tan extended-star node-diagnosis
// approach [8] (Section 3/6 comparison), Yang's cycle-decomposition
// algorithm for hypercubes [27] (Section 3), and an exact brute-force
// reference used to validate diagnosability claims on small instances.
package baseline

import (
	"errors"
	"fmt"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/syndrome"
)

// ExtendedStar is the Fig. 2 structure: a root x and `n` node-disjoint
// branch paths x–a–b–c–e (disjoint except for the shared root). Only the
// first four nodes of each branch are used by the decision rule.
type ExtendedStar struct {
	Root     int32
	Branches [][4]int32 // (a, b, c, e) per branch
}

// ErrNoExtendedStar reports that the requested number of disjoint
// branches could not be constructed at a node — the applicability limit
// of Chiang and Tan's technique that Stewart's Section 6 emphasises.
var ErrNoExtendedStar = errors.New("baseline: node is not the root of a full extended star")

// FindExtendedStar builds an extended star with `branches` disjoint
// branches rooted at x, one starting at each of x's first `branches`
// neighbours, by depth-first search with backtracking across branches
// (a budget caps pathological searches). Cost is modest but — as the
// paper points out — strictly additional to the diagnosis itself.
func FindExtendedStar(g *graph.Graph, x int32, branches int) (*ExtendedStar, error) {
	if branches > g.Degree(x) {
		return nil, fmt.Errorf("%w: %d branches requested at degree-%d node", ErrNoExtendedStar, branches, g.Degree(x))
	}
	used := bitset.New(g.N())
	used.Add(int(x))
	starts := g.Neighbors(x)[:branches]
	result := make([][4]int32, branches)
	budget := 1 << 20

	// extend grows branch bi from depth d (result[bi][:d] fixed); on
	// depth 4 it moves to the next branch, so failures backtrack across
	// branch boundaries.
	var build func(bi, d int, cur int32) bool
	build = func(bi, d int, cur int32) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if d == 4 {
			if bi+1 == branches {
				return true
			}
			a := starts[bi+1]
			if used.Contains(int(a)) {
				return false
			}
			used.Add(int(a))
			result[bi+1][0] = a
			if build(bi+1, 1, a) {
				return true
			}
			used.Remove(int(a))
			return false
		}
		for _, nxt := range g.Neighbors(cur) {
			if used.Contains(int(nxt)) {
				continue
			}
			used.Add(int(nxt))
			result[bi][d] = nxt
			if build(bi, d+1, nxt) {
				return true
			}
			used.Remove(int(nxt))
		}
		return false
	}

	a := starts[0]
	used.Add(int(a))
	result[0][0] = a
	if !build(0, 1, a) {
		return nil, fmt.Errorf("%w: search failed at node %d", ErrNoExtendedStar, x)
	}
	return &ExtendedStar{Root: x, Branches: result}, nil
}

// HypercubeExtendedStar builds the analytic extended star of Q_n (n ≥ 5)
// at x: branch i follows dimensions i, i+1, i+2, i+3 (mod n). Distinct
// branches flip cyclic runs with distinct starts and lengths ≤ 4 < n, so
// the branches are node-disjoint.
func HypercubeExtendedStar(n int, x int32) (*ExtendedStar, error) {
	if n < 5 {
		return nil, fmt.Errorf("%w: analytic construction needs n ≥ 5", ErrNoExtendedStar)
	}
	es := &ExtendedStar{Root: x, Branches: make([][4]int32, n)}
	for i := 0; i < n; i++ {
		v := x
		for step := 0; step < 4; step++ {
			v ^= int32(1) << uint((i+step)%n)
			es.Branches[i][step] = v
		}
	}
	return es, nil
}

// BranchVerdict classifies one branch by its three chained tests
// t1 = s_a(x,b), t2 = s_b(a,c), t3 = s_c(b,e).
type BranchVerdict int

const (
	// BranchMixed is any pattern other than quiet or accusing.
	BranchMixed BranchVerdict = iota
	// BranchQuiet is (0,0,0): a fault-free branch under a healthy root.
	BranchQuiet
	// BranchAccusing is (1,0,0): a fault-free branch under a faulty root.
	BranchAccusing
)

// ClassifyBranch evaluates the three chained tests of one branch.
func ClassifyBranch(s syndrome.Syndrome, x int32, br [4]int32) BranchVerdict {
	t1 := s.Test(br[0], x, br[1])
	t2 := s.Test(br[1], br[0], br[2])
	t3 := s.Test(br[2], br[1], br[3])
	switch {
	case t1 == 0 && t2 == 0 && t3 == 0:
		return BranchQuiet
	case t1 == 1 && t2 == 0 && t3 == 0:
		return BranchAccusing
	default:
		return BranchMixed
	}
}

// NodeFaulty applies the extended-star decision rule at one root with n
// branches, valid when the total number of faults is at most n:
//
//	x is faulty  ⟺  #accusing > #quiet.
//
// Correctness: a quiet branch under a faulty root
// forces a, b, c faulty (3 faults); an accusing branch under a healthy
// root forces b, c faulty (2 faults); fault-free branches are quiet
// under a healthy root and accusing under a faulty one. Counting faults
// over the disjoint branches gives, with f ≤ n total faults:
// healthy root ⇒ quiet ≥ accusing; faulty root ⇒ accusing ≥ quiet + 1.
func NodeFaulty(s syndrome.Syndrome, es *ExtendedStar) bool {
	quiet, accusing := 0, 0
	for _, br := range es.Branches {
		switch ClassifyBranch(s, es.Root, br) {
		case BranchQuiet:
			quiet++
		case BranchAccusing:
			accusing++
		}
	}
	return accusing > quiet
}

// CTStats reports the cost profile of a Chiang–Tan run, the quantities
// Stewart's Section 6 compares: unlike Set_Builder, the approach needs
// the complete syndrome table plus per-node star construction.
type CTStats struct {
	TableEntries int64 // size of the syndrome table that was materialised
	RuleLookups  int64 // look-ups made by the decision rule (3 per branch per node)
}

// CTDiagnose diagnoses every node independently with the extended-star
// rule, mirroring Chiang and Tan's O(ΔN) algorithm [8]. starAt supplies
// the extended star per node (analytic or FindExtendedStar). The lazy
// source syndrome is first materialised into a full table — the cost the
// paper's Section 6 charges this baseline with.
func CTDiagnose(g *graph.Graph, src syndrome.Syndrome, starAt func(x int32) (*ExtendedStar, error)) (*bitset.Set, *CTStats, error) {
	table := syndrome.BuildTable(g, src)
	stats := &CTStats{TableEntries: table.Entries()}
	faults := bitset.New(g.N())
	for x := int32(0); int(x) < g.N(); x++ {
		es, err := starAt(x)
		if err != nil {
			return nil, stats, fmt.Errorf("node %d: %w", x, err)
		}
		if NodeFaulty(table, es) {
			faults.Add(int(x))
		}
	}
	stats.RuleLookups = table.Lookups()
	return faults, stats, nil
}
