package main

import (
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 1000, 2*time.Second)
	b := poissonSchedule(7, 1000, 2*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(8, 1000, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 2000 arrivals expected; a Poisson count is within ±5σ (σ ≈ 45).
	if n := len(a); n < 1775 || n > 2225 {
		t.Fatalf("%d arrivals in 2 s at 1000/s", n)
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 2*time.Second {
		t.Fatal("due times must ascend within the phase")
	}
}

// A handler that stalls for 50 ms, behind a client that can keep only
// one request outstanding, holds back every request due during the
// stall: measured from their due times those requests are late by most
// of the stall, although each one is answered at once after it is sent.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	var mu sync.Mutex
	lb, err := startLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Query().Get("i") == "2" {
			time.Sleep(stall)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()

	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	samples := openLoop(due, 1, func(i int) bool {
		resp, err := lb.client.Get(lb.url + "/?i=" + strconv.Itoa(i))
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
	}
	// Request 3 was due 5 ms after the stalled request 2.
	if s := samples[3]; s.latency() < stall-15*time.Millisecond || s.lag() < stall-15*time.Millisecond {
		t.Errorf("request due during the stall: latency %v lag %v, want both near %v", s.latency(), s.lag(), stall-5*time.Millisecond)
	}
	if s := samples[3]; s.done-s.sent > 20*time.Millisecond {
		t.Errorf("request due during the stall took %v once sent; the delay should be in its lag", s.done-s.sent)
	}
	// Request 19 was due 45 ms after the stall ended: the backlog has
	// drained by then.
	if s := samples[19]; s.latency() > 20*time.Millisecond {
		t.Errorf("request due after the backlog drained: latency %v", s.latency())
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	var mu sync.Mutex
	next := 0
	done, failN, elapsed := closedLoop(4, 30*time.Millisecond, func() int {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next
	}, func(i int) bool {
		time.Sleep(time.Millisecond)
		return i%10 != 0
	})
	if len(done) == 0 || failN == 0 || int64(len(done))+failN != int64(next) {
		t.Fatalf("ok %d failed %d of %d requests", len(done), failN, next)
	}
	if elapsed < 30*time.Millisecond || elapsed > 200*time.Millisecond {
		t.Fatalf("phase took %v for a 30 ms deadline", elapsed)
	}
}
