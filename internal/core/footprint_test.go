package core

import (
	"runtime"
	"testing"

	"comparisondiag/internal/graph"
)

// TestCayleyEngineBindFootprint pins the implicit bind's memory
// contract: binding Q22 (4,194,304 nodes) from its descriptor, and
// building the tightened candidates of any FaultBound 1..δ, allocates
// nothing proportional to the node count — not even transiently. The
// whole partition would be 16 MiB of node ids; the engine keeps only
// the bound+1 candidate blocks a diagnosis scans.
func TestCayleyEngineBindFootprint(t *testing.T) {
	const bitsN = 22
	masks := make([]int32, bitsN)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	desc := graph.XORCayley{Bits: bitsN, Masks: masks}
	for bound := 1; bound <= bitsN; bound++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, err := NewCayleyEngine(desc, bitsN)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := eng.partsFor(eng.bnd.Load(), bound)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
			t.Fatalf("bound %d: binding Q%d allocated %d bytes, want < 64 KiB", bound, bitsN, d)
		}
		if len(parts) != bound+1 {
			t.Fatalf("bound %d: engine holds %d parts, want the %d candidates", bound, len(parts), bound+1)
		}
	}
}
