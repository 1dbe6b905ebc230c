// Package graph provides the undirected-graph substrate used to model
// interconnection networks. Nodes are dense int32 identifiers in [0, N);
// adjacency is stored in compressed-sparse-row (CSR) form — one flat
// target array plus per-node offsets — so that networks with millions of
// nodes fit comfortably in memory and neighbour scans are a single
// contiguous read. FromAdjacency builds the structure in O(m) without
// sorting: it calls a neighbour-appending callback once per node,
// deduplicates each listed block, and lays the target array down at
// exact size as the input's transpose, which also proves the input
// symmetric.
// FromXORCayley returns an XOR-Cayley graph (Q_n, FQ_n, Q_{n,f}, AQ_n)
// backed by its generator set: degrees, edges, neighbourhoods, removals
// and connectivity are answered from the masks, and the CSR is written
// only when a caller first reads the arrays, each block checked as it is
// written.
// Builder assembles a graph from an edge list by counting sort. The
// package also supplies the exact structural computations the diagnosis
// theory relies on: connectivity (via Menger/max-flow), articulation
// points, components and BFS layers.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Graph is a simple undirected graph over nodes 0..N-1 in CSR layout:
// the neighbours of u are targets[offsets[u]:offsets[u+1]], ascending.
// Build one with FromAdjacency, FromXORCayley or NewBuilder; a finished
// Graph is immutable and safe for concurrent readers.
//
// A graph FromXORCayley built is descriptor-backed: it holds its
// generator set and no arrays until Neighbors, Adjacency or an analysis
// that walks the table (Validate, BFSFrom, Components, connectivity)
// first needs them; that first read writes the CSR once, whichever
// goroutines race to it.
type Graph struct {
	n       int
	offsets []int32 // len n+1; offsets[u] is the start of u's block
	targets []int32 // len 2m; sorted within each node's block
	m       int     // number of undirected edges
	// xor is the generator set FromXORCayley checked every block
	// against, masks ascending; nil on every other graph.
	xor *XORCayley
	// gen generates the neighbourhoods of a descriptor-backed graph;
	// nil on every other graph. Its CSR is written by the first
	// materialise, and written records that it was.
	gen     *CayleyAdjacency
	once    sync.Once
	written atomic.Bool
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns the adjacency list of u in ascending order, as a
// view into the CSR target array. The caller must not modify the
// returned slice. On a descriptor-backed graph the first call writes
// the CSR; AppendNeighbors generates a neighbourhood without it.
func (g *Graph) Neighbors(u int32) []int32 {
	if g.gen != nil {
		return g.lazyNeighbors(u)
	}
	return g.targets[g.offsets[u]:g.offsets[u+1]]
}

// lazyNeighbors is Neighbors on a descriptor-backed graph. Kept out of
// Neighbors so that it stays within the inlining budget: the hot
// Set_Builder and certification loops call it once per node.
func (g *Graph) lazyNeighbors(u int32) []int32 {
	g.materialise()
	return g.targets[g.offsets[u]:g.offsets[u+1]]
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int32) int {
	if g.gen != nil {
		return g.gen.deg
	}
	return int(g.offsets[u+1] - g.offsets[u])
}

// Adjacency exposes the raw CSR arrays: the neighbours of u are
// targets[offsets[u]:offsets[u+1]], ascending. Callers must treat both
// slices as read-only; the accessor exists so hot kernels (the engine's
// final Set_Builder pass) can walk adjacency without constructing a
// slice header per node — the same escape hatch bitset.Words provides.
// On a descriptor-backed graph the first call writes the CSR.
func (g *Graph) Adjacency() (offsets, targets []int32) {
	if g.gen != nil {
		g.materialise()
	}
	return g.offsets, g.targets
}

// CayleyAdjacency returns the generator of a descriptor-backed graph
// (one FromXORCayley built), which answers every neighbourhood without
// the CSR, or nil for a graph that is its table.
func (g *Graph) CayleyAdjacency() *CayleyAdjacency { return g.gen }

// Materialized reports whether the CSR arrays exist: always for a graph
// built as a table, and for a descriptor-backed graph once a caller has
// read them.
func (g *Graph) Materialized() bool { return g.gen == nil || g.written.Load() }

// materialise writes a descriptor-backed graph's CSR exactly once; the
// sync.Once orders the write before every reader that passes it.
func (g *Graph) materialise() { g.once.Do(g.writeCSR) }

// writeCSR builds the CSR of the generator set with the per-block check
// of buildXORCSR. FromXORCayley refused every malformed set, and a
// well-formed one passes its check by construction, so a failure here is
// a bug.
func (g *Graph) writeCSR() {
	offsets, targets, err := buildXORCSR(g.gen, maskTable(g.n, g.xor.Masks))
	if err != nil {
		panic(err.Error())
	}
	g.offsets, g.targets = offsets, targets
	g.written.Store(true)
}

// MaxDegree returns the maximum node degree (Δ in the paper).
func (g *Graph) MaxDegree() int {
	if g.gen != nil {
		return g.gen.deg
	}
	d := int32(0)
	for u := 0; u < g.n; u++ {
		if w := g.offsets[u+1] - g.offsets[u]; w > d {
			d = w
		}
	}
	return int(d)
}

// MinDegree returns the minimum node degree.
func (g *Graph) MinDegree() int {
	if g.gen != nil {
		return g.gen.deg
	}
	if g.n == 0 {
		return 0
	}
	d := g.offsets[1] - g.offsets[0]
	for u := 1; u < g.n; u++ {
		if w := g.offsets[u+1] - g.offsets[u]; w < d {
			d = w
		}
	}
	return int(d)
}

// HasEdge reports whether {u, v} is an edge: by binary search on u's
// (sorted) adjacency block, or on a descriptor-backed graph by whether
// u⊕v is a mask.
func (g *Graph) HasEdge(u, v int32) bool {
	if g.gen != nil {
		_, ok := slices.BinarySearch(g.xor.Masks, u^v)
		return ok
	}
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// IsRegular reports whether every node has degree d.
func (g *Graph) IsRegular(d int) bool {
	if g.gen != nil {
		return g.gen.deg == d
	}
	for u := 0; u < g.n; u++ {
		if int(g.offsets[u+1]-g.offsets[u]) != d {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: no self-loops, no duplicate
// edges, symmetric adjacency, sorted lists, consistent CSR offsets.
// Topology constructors call this in tests to catch wiring mistakes.
func (g *Graph) Validate() error {
	g.Adjacency()
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d for %d nodes", len(g.offsets), g.n)
	}
	if g.offsets[0] != 0 || int(g.offsets[g.n]) != len(g.targets) {
		return errors.New("graph: CSR offsets do not span the target array")
	}
	if len(g.targets) != 2*g.m {
		return fmt.Errorf("graph: %d directed arcs for %d undirected edges", len(g.targets), g.m)
	}
	for u := int32(0); int(u) < g.n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", u)
		}
		a := g.Neighbors(u)
		for i, v := range a {
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: out-of-range neighbour %d of %d", v, u)
			}
			if i > 0 && a[i-1] >= v {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			if !g.HasEdge(v, u) {
				return fmt.Errorf("graph: edge %d-%d not symmetric", u, v)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Adding the
// same undirected edge twice is allowed (deduplicated in Build), which
// keeps topology constructors simple: they may emit each edge from both
// endpoints.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are rejected.
func (b *Builder) AddEdge(u, v int32) error {
	if u == v {
		return errors.New("graph: self-loop")
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("graph: edge %d-%d out of range [0,%d)", u, v, b.n)
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{u, v})
	return nil
}

// MustAddEdge is AddEdge that panics on error; used by topology
// constructors whose coordinates are correct by construction.
func (b *Builder) MustAddEdge(u, v int32) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Build deduplicates edges and produces the Graph in CSR form. The whole
// construction is O(m + n): each undirected edge is expanded into its two
// directed arcs, the arc list is sorted with two stable counting-sort
// passes (by target, then by source — an LSD radix sort on node ids), the
// distinct arcs, now adjacent, are counted so the target array is
// allocated at exact size, and the flat target array and offsets are
// laid down.
func (b *Builder) Build() *Graph {
	n := b.n
	na := 2 * len(b.edges)
	src := make([]int32, na)
	dst := make([]int32, na)
	for i, e := range b.edges {
		src[2*i], dst[2*i] = e[0], e[1]
		src[2*i+1], dst[2*i+1] = e[1], e[0]
	}
	tmpS := make([]int32, na)
	tmpD := make([]int32, na)
	count := make([]int32, n+1)
	countingSortByKey(dst, src, dst, tmpS, tmpD, count)  // stable pass 1: by target
	countingSortByKey(tmpS, tmpS, tmpD, src, dst, count) // stable pass 2: by source

	distinct := 0
	for i := 0; i < na; i++ {
		if i == 0 || src[i] != src[i-1] || dst[i] != dst[i-1] {
			distinct++
		}
	}
	offsets := make([]int32, n+1)
	targets := make([]int32, 0, distinct)
	prevS, prevD := int32(-1), int32(-1)
	u := int32(0)
	for i := 0; i < na; i++ {
		s, d := src[i], dst[i]
		if s == prevS && d == prevD {
			continue
		}
		prevS, prevD = s, d
		for u < s {
			u++
			offsets[u] = int32(len(targets))
		}
		targets = append(targets, d)
	}
	for int(u) < n {
		u++
		offsets[u] = int32(len(targets))
	}
	return &Graph{n: n, offsets: offsets, targets: targets, m: len(targets) / 2}
}

// countingSortByKey stably sorts the arc list (src, dst) by the given
// per-arc key slice into (outS, outD), reusing count as scratch. key
// values must lie in [0, len(count)-1).
func countingSortByKey(key, src, dst, outS, outD, count []int32) {
	for i := range count {
		count[i] = 0
	}
	for _, k := range key {
		count[k]++
	}
	var sum int32
	for i := range count {
		c := count[i]
		count[i] = sum
		sum += c
	}
	for i := range src {
		p := count[key[i]]
		count[key[i]]++
		outS[p], outD[p] = src[i], dst[i]
	}
}

// CheckInt32Bounds returns an error unless a regular graph on n nodes
// of degree deg fits the int32 indexing every adjacency here uses: at most
// MaxInt32 node ids and at most MaxInt32 arcs (n·deg, the CSR offset
// range). FromAdjacency and FromXORCayley refuse exactly these graphs,
// and callers that bind a family without building its CSR refuse the
// same sizes with it, before allocating anything proportional to n.
func CheckInt32Bounds(n, deg int) error {
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("graph: %d nodes do not fit int32 node ids", n)
	}
	if arcs := int64(n) * int64(deg); arcs > math.MaxInt32 {
		return fmt.Errorf("graph: %d nodes of degree %d make %d arcs, beyond int32 CSR offsets", n, deg, arcs)
	}
	return nil
}

// FromAdjacency builds a Graph from an adjacency callback, calling it
// once per node and never going through Builder. For every node u in
// ascending order, appendNeighbors(dst, u) must append u's neighbours to
// dst and return the extended slice, exactly like the built-in append:
// the callback writes straight into a growing arc array, so it need not
// allocate. Neighbours may come in any order and may repeat.
//
// Each node's block is range- and self-loop-checked and deduplicated as
// it arrives. The CSR is then laid down as the input's transpose, since
// a symmetric adjacency is its own transpose: scattering every arc u→v
// into v's block, u ascending, writes each block already sorted into a
// target array of exact size, and a membership pass then proves every
// block holds exactly the neighbours its node listed. Symmetry is thus
// enforced, not assumed, and the target array has exact capacity
// whatever order the callback lists in.
//
// FromAdjacency panics, naming the offending node or arc, on a
// self-loop, an out-of-range neighbour, an arc whose reverse is missing,
// or a graph an int32 CSR cannot index: more than MaxInt32 nodes, or
// n × deg(0) arcs beyond MaxInt32, refused before anything proportional
// to n is allocated.
func FromAdjacency(n int, appendNeighbors func(dst []int32, u int32) []int32) *Graph {
	if err := CheckInt32Bounds(n, 0); err != nil {
		panic(err.Error())
	}
	if n == 0 {
		return &Graph{offsets: make([]int32, 1), targets: []int32{}}
	}
	// Node 0's degree sizes the input array, exactly for the regular
	// graphs every topology family produces.
	first := appendNeighbors(nil, 0)
	distinct := slices.Clone(first)
	slices.Sort(distinct)
	deg0 := len(slices.Compact(distinct))
	if err := CheckInt32Bounds(n, deg0); err != nil {
		panic(err.Error())
	}

	// in holds each node's listed neighbours, deduplicated; stamp[v] ==
	// u+1 once u has listed v.
	in := append(make([]int32, 0, n*deg0), first...)
	offsets := make([]int32, n+1)
	stamp := make([]int32, n)
	for u := int32(0); int(u) < n; u++ {
		start := int(offsets[u])
		if u > 0 {
			in = appendNeighbors(in, u)
		}
		kept := start
		for _, v := range in[start:] {
			if v == u {
				panic(fmt.Sprintf("graph: self-loop at node %d", u))
			}
			if v < 0 || int(v) >= n {
				panic(fmt.Sprintf("graph: neighbour %d of node %d out of range [0,%d)", v, u, n))
			}
			if stamp[v] != u+1 {
				stamp[v] = u + 1
				in[kept] = v
				kept++
			}
		}
		in = in[:kept]
		if len(in) > math.MaxInt32 {
			panic(fmt.Sprintf("graph: more than %d arcs by node %d, beyond int32 CSR offsets", math.MaxInt32, u))
		}
		offsets[u+1] = int32(len(in))
	}

	// Scatter the transpose: cur[v] (reusing the stamp array) is the next
	// free slot of v's block. No block overflows only if no node is
	// listed by more nodes than it lists itself; as the totals agree,
	// every block then ends up full.
	targets := make([]int32, len(in))
	cur := stamp
	copy(cur, offsets[:n])
	for u := int32(0); int(u) < n; u++ {
		for _, v := range in[offsets[u]:offsets[u+1]] {
			c := cur[v]
			if c == offsets[v+1] {
				// One more node lists v than v lists, so one of them
				// is missing from v's own list.
				own := in[offsets[v]:offsets[v+1]]
				for _, x := range append(targets[offsets[v]:c:c], u) {
					if !slices.Contains(own, x) {
						panicAsymmetric(x, v)
					}
				}
			}
			targets[c] = u
			cur[v] = c + 1
		}
	}

	// Block v now lists, ascending, the nodes that listed v, as many as
	// v listed itself, all distinct: it equals v's own list exactly when
	// every lister is among v's neighbours.
	clear(stamp)
	for v := int32(0); int(v) < n; v++ {
		for _, x := range in[offsets[v]:offsets[v+1]] {
			stamp[x] = v + 1
		}
		for _, x := range targets[offsets[v]:offsets[v+1]] {
			if stamp[x] != v+1 {
				panicAsymmetric(x, v)
			}
		}
	}
	return &Graph{n: n, offsets: offsets, targets: targets, m: len(targets) / 2}
}

func panicAsymmetric(u, v int32) {
	panic(fmt.Sprintf("graph: arc %d→%d has no reverse arc %d→%d", u, v, v, u))
}
