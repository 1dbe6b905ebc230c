package topology

import (
	"math/bits"
	"testing"
)

// TestAugmentedCubeDiameter: AQ_n has diameter ⌈n/2⌉ [10] (our variant
// places the complemented runs at the low bits — a bit-reversal
// isomorphism, so the metric is unchanged).
func TestAugmentedCubeDiameter(t *testing.T) {
	for n := 2; n <= 8; n++ {
		g := NewAugmentedCube(n).Graph()
		want := (n + 1) / 2
		if e := g.Eccentricity(0); e != want {
			t.Fatalf("diameter(AQ%d) = %d, want %d", n, e, want)
		}
	}
}

// TestAugmentedCubeEdgeShape: edges flip one bit or a low run of ≥ 2
// bits.
func TestAugmentedCubeEdgeShape(t *testing.T) {
	n := 6
	g := NewAugmentedCube(n).Graph()
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			x := uint32(u ^ v)
			single := bits.OnesCount32(x) == 1
			run := x > 1 && x&(x+1) == 0 // 2^{i+1}-1 shapes
			if !single && !run {
				t.Fatalf("edge %d-%d flips %06b", u, v, x)
			}
		}
	}
}

// TestAugmentedCubePrefixRecursion: fixing the top bit induces AQ_{n-1}.
func TestAugmentedCubePrefixRecursion(t *testing.T) {
	big := NewAugmentedCube(5).Graph()
	small := NewAugmentedCube(4).Graph()
	half := int32(16)
	for u := int32(0); u < half; u++ {
		for v := u + 1; v < half; v++ {
			if small.HasEdge(u, v) != big.HasEdge(u, v) ||
				small.HasEdge(u, v) != big.HasEdge(half+u, half+v) {
				t.Fatalf("AQ5 halves disagree with AQ4 at (%d,%d)", u, v)
			}
		}
	}
}

// TestAugmentedCubeConnectivityException pins the n = 3 special case:
// κ(AQ3) = 4 < 2n-1, verified exactly (the library must not claim 5),
// and δ(AQ3) = 3, the exhaustively computed value below κ.
func TestAugmentedCubeConnectivityException(t *testing.T) {
	if testing.Short() {
		t.Skip("exact connectivity")
	}
	a := NewAugmentedCube(3)
	if got := a.Graph().VertexConnectivity(); got != 4 {
		t.Fatalf("κ(AQ3) = %d, want 4", got)
	}
	if a.Connectivity() != 4 || a.Diagnosability() != 3 {
		t.Fatal("claimed values must reflect the exception")
	}
}

// TestTwistedNCubeIsLocalSurgery: TQ'_n differs from Q_n on exactly the
// four rewired edges (two removed, two added).
func TestTwistedNCubeIsLocalSurgery(t *testing.T) {
	n := 6
	tq := NewTwistedNCube(n).Graph()
	q := NewHypercube(n).Graph()
	var removed, added [][2]int32
	for u := int32(0); int(u) < q.N(); u++ {
		for _, v := range q.Neighbors(u) {
			if u < v && !tq.HasEdge(u, v) {
				removed = append(removed, [2]int32{u, v})
			}
		}
		for _, v := range tq.Neighbors(u) {
			if u < v && !q.HasEdge(u, v) {
				added = append(added, [2]int32{u, v})
			}
		}
	}
	if len(removed) != 2 || len(added) != 2 {
		t.Fatalf("surgery wrong size: removed %v, added %v", removed, added)
	}
	if removed[0] != [2]int32{0, 1} || removed[1] != [2]int32{2, 3} {
		t.Fatalf("removed %v, want [[0 1] [2 3]]", removed)
	}
	if added[0] != [2]int32{0, 3} || added[1] != [2]int32{1, 2} {
		t.Fatalf("added %v, want [[0 3] [1 2]]", added)
	}
}

// TestTwistedNCubeBreaksBipartiteness: the twist creates odd cycles —
// the structural signature distinguishing TQ'_n from Q_n.
func TestTwistedNCubeBreaksBipartiteness(t *testing.T) {
	g := NewTwistedNCube(5).Graph()
	// 2-colour by BFS; the twist must produce a conflict.
	color := make([]int8, g.N())
	for i := range color {
		color[i] = -1
	}
	color[0] = 0
	queue := []int32{0}
	conflict := false
	for len(queue) > 0 && !conflict {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if color[v] == -1 {
				color[v] = 1 - color[u]
				queue = append(queue, v)
			} else if color[v] == color[u] {
				conflict = true
			}
		}
	}
	if !conflict {
		t.Fatal("TQ'5 is bipartite — twist missing")
	}
}
