package serve

import (
	"runtime"
	"testing"
)

// TestPreloadQ26Footprint pins what the largest served hypercube costs
// at rest: preloading q:26 (67,108,864 nodes) retains less than 1 MiB
// — the descriptor, the 27 candidate parts, an empty result cache and
// an idle worker pool holding no scratch. The full partition alone
// would be 256 MiB of node ids, and one scratch ~280 MiB.
func TestPreloadQ26Footprint(t *testing.T) {
	before := liveHeap()
	srv := New(Config{})
	defer srv.Close()
	if err := srv.Preload("q:26"); err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(srv)
	if retained >= 1<<20 {
		t.Fatalf("preloaded q:26 retains %d bytes at rest, want < 1 MiB", retained)
	}
}

// liveHeap is the live heap after two collections (the second empties
// the sync.Pool victim caches).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
