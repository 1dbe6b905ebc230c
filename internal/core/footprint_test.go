package core

import (
	"runtime"
	"testing"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/topology"
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

// liveHeap returns the heap still reachable after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCSREngineBindFootprint pins what a CSR engine keeps at bind:
// beyond the network's own CSR, a bound FQ16 engine (65,536 nodes,
// δ = 17) retains its kernel and the δ+1 candidate parts a diagnosis
// scans, under 16 KiB. The full partition would be 256 KiB of node ids.
func TestCSREngineBindFootprint(t *testing.T) {
	nw := topology.NewFoldedHypercube(16)
	before := liveHeap()
	eng := NewEngine(nw)
	retained := liveHeap() - before
	if err := eng.PartsErr(); err != nil {
		t.Fatal(err)
	}
	if retained >= 16<<10 {
		t.Fatalf("binding %s retains %d bytes beyond its CSR, want < 16 KiB", nw.Name(), retained)
	}
	if got, want := len(eng.bnd.Load().parts), nw.Diagnosability()+1; got != want {
		t.Fatalf("engine stores %d parts, want the %d candidates", got, want)
	}
}

// TestTightPartitionFootprint pins the tightened-bound cache of a CSR
// engine: serving every FaultBound 1..δ−1 on FQ16 keeps only each
// bound's bound+1 candidates, under 64 KiB in total, where one full
// partition per bound would be 256 KiB each.
func TestTightPartitionFootprint(t *testing.T) {
	nw := topology.NewFoldedHypercube(16)
	eng := NewEngine(nw)
	b := eng.bnd.Load()
	before := liveHeap()
	for bound := 1; bound < b.delta; bound++ {
		if _, err := eng.partsFor(b, bound); err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
	}
	if retained := liveHeap() - before; retained >= 64<<10 {
		t.Fatalf("FaultBound 1..%d on %s retains %d bytes, want < 64 KiB", b.delta-1, nw.Name(), retained)
	}
	for bound := 1; bound < b.delta; bound++ {
		if got := len(b.tight[bound]); got != bound+1 {
			t.Fatalf("bound %d: engine caches %d parts, want the %d candidates", bound, got, bound+1)
		}
	}
}

// TestDescriptorGraphEngineFootprint pins what a network engine over a
// descriptor-backed graph keeps: parsing q:14 and binding it with
// NewEngine retains under 64 KiB — the generator set, the kernel and the
// δ+1 candidate parts — and writes no CSR, which alone would be 0.94 MB.
func TestDescriptorGraphEngineFootprint(t *testing.T) {
	before := liveHeap()
	nw, err := topology.Parse("q:14")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nw)
	retained := liveHeap() - before
	if err := eng.PartsErr(); err != nil {
		t.Fatal(err)
	}
	if retained >= 64<<10 {
		t.Fatalf("parsing and binding q:14 retains %d bytes, want < 64 KiB", retained)
	}
	if nw.Graph().Materialized() {
		t.Fatal("binding q:14 wrote its CSR")
	}
	t.Logf("q:14 parsed and bound: %d bytes retained", retained)
	runtime.KeepAlive(eng)
}
