package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// 100 samples: p99 is the 99th smallest, so exactly one sample lies
	// beyond it.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	} {
		q1, q2, q3 := quartiles(append([]float64(nil), c.xs...))
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

// One window disturbed by a burst of noise does not move the median
// over windows.
func TestWindowMedianIgnoresOneBadWindow(t *testing.T) {
	var ts []time.Duration
	var vs []float64
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * 10 * time.Millisecond // 5 s, 100 samples per 1 s window
		v := 4.0
		if at >= 2*time.Second && at < 3*time.Second {
			v = 40
		}
		ts, vs = append(ts, at), append(vs, v)
	}
	if got := windowMedian(ts, vs, 5*time.Second, time.Second, p99); got != 4 {
		t.Errorf("median of per-window p99 = %v, want 4", got)
	}
	if got := percentile(vs, 99); got != 40 {
		t.Errorf("whole-phase p99 = %v, want 40", got)
	}
	// A phase shorter than one window is a single window.
	if got := windowMedian(ts[:50], vs[:50], 500*time.Millisecond, time.Second, p50); got != 4 {
		t.Errorf("short phase: %v, want 4", got)
	}
}

func TestRateValues(t *testing.T) {
	var done []time.Duration
	for i := 0; i < 400; i++ { // 200/s for 2 s
		done = append(done, time.Duration(i)*5*time.Millisecond)
	}
	for i := 0; i < 10; i++ { // a stalled third second
		done = append(done, 2*time.Second+time.Duration(i)*100*time.Millisecond)
	}
	got := rateValues(done, 3*time.Second, time.Second)
	want := []float64{200, 200, 10}
	for i := range want {
		if len(got) != len(want) || math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rates %v, want %v", got, want)
		}
	}
}

func TestInterquartileRange(t *testing.T) {
	xs := []float64{100, 102, 98, 101, 99, 103, 97, 100, 101, 99}
	q1, q2, q3 := quartiles(xs)
	if iqr := q3 - q1; math.Abs(iqr-2.5) > 1e-12 || q2 != 100 {
		t.Errorf("IQR %v median %v, want 2.5 and 100", iqr, q2)
	}
}
