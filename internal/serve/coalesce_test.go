package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/core"
	"comparisondiag/internal/syndrome"
)

// panicPool is a core.BatchPool whose every batch panics.
type panicPool struct{}

func (panicPool) RunScratch(int, func(*core.Scratch, int)) { panic("poisoned batch") }

// awaitOutcome receives one outcome or fails the test: a stranded
// waiter shows up as a timeout, not a hung test binary.
func awaitOutcome(t *testing.T, ch <-chan Outcome) Outcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stranded: no outcome within 10s")
		return Outcome{}
	}
}

// TestCoalescerBatchPanicAnswersWaiters pins the flush's panic
// isolation on a panicking pool, on both flush paths: a batch flushed
// synchronously by the submission that filled it, and a pending batch
// flushed by close. Every waiter of a poisoned batch — deduplicated
// ones included — receives an errBatchPanic outcome, and close returns.
func TestCoalescerBatchPanicAnswersWaiters(t *testing.T) {
	eng, err := hypercubeEngine(6)
	if err != nil {
		t.Fatal(err)
	}
	var met metrics
	c := newCoalescer(eng, panicPool{}, nil, time.Hour, 3, &met)
	submit := func(key string, fault int) <-chan Outcome {
		F := bitset.New(64)
		F.Add(fault)
		ch, err := c.Submit(key, F, syndrome.Mimic{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	// Three distinct requests fill the batch; the third flushes it.
	chans := []<-chan Outcome{submit("a", 1), submit("a", 1), submit("b", 2), submit("c", 3)}
	pending := submit("d", 4)
	done := make(chan struct{})
	go func() {
		c.close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("close did not return after a poisoned flush")
	}
	for i, ch := range append(chans, pending) {
		if out := awaitOutcome(t, ch); !errors.Is(out.Err, errBatchPanic) {
			t.Fatalf("waiter %d: outcome err %v, want errBatchPanic", i, out.Err)
		}
	}
}

// TestServedBatchPanicIs500 pins the served side: requests coalesced
// into a batch that panics are each answered 500 and counted in
// diagnosed_errors_total, and the server still drains on Close.
func TestServedBatchPanicIs500(t *testing.T) {
	srv := New(Config{Workers: 1})
	if err := srv.Preload("q:8"); err != nil {
		t.Fatal(err)
	}
	e, err := srv.reg.get("q:8")
	if err != nil {
		t.Fatal(err)
	}
	e.co.close()
	e.co = newCoalescer(e.eng, panicPool{}, e.cache, 20*time.Millisecond, 64, &srv.met)
	e.release()

	bodies := []string{
		`{"topology":"q:8","faults":[3,77]}`,
		`{"topology":"q:8","faults":[3,77]}`,
		`{"topology":"q:8","faults":[5,200],"behavior":"allzero"}`,
	}
	codes := make([]int, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/diagnose", strings.NewReader(body)))
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusInternalServerError {
			t.Errorf("request %d: status %d, want 500", i, code)
		}
	}
	if snap := srv.Snapshot(); snap.Errors != int64(len(bodies)) {
		t.Errorf("diagnosed_errors_total = %d, want %d", snap.Errors, len(bodies))
	}
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after a poisoned batch")
	}
}
