package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs is sorted in place; an empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// quartiles returns the three cut points dividing xs into four groups,
// by the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so spreads computed here match the ones
// a reader recomputes from the records. A single sample is its own
// quartiles; an empty one yields zeros. xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	slices.Sort(xs)
	m := len(xs) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(xs)-1))
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle sample, or the mean of the two middle samples;
// xs is sorted in place and an empty sample yields 0.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// windowValues splits a phase of length span into windows of width w
// (the last one absorbing any remainder; one window when span < w) and
// applies f to the values whose times fall in each window. Reporting
// the median over windows keeps a burst of host noise from moving a
// whole run.
func windowValues(ts []time.Duration, vs []float64, span, w time.Duration, f func([]float64) float64) []float64 {
	n := max(1, int(span/w))
	groups := make([][]float64, n)
	for i, t := range ts {
		k := min(max(int(t/w), 0), n-1)
		groups[k] = append(groups[k], vs[i])
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, f(g))
		}
	}
	return per
}

func windowMedian(ts []time.Duration, vs []float64, span, w time.Duration, f func([]float64) float64) float64 {
	return median(windowValues(ts, vs, span, w, f))
}

// rateValues splits a phase of length span into windows of width w
// (one window of width span when span < w) and returns the completion
// rate within each window, measured between its first and last
// completion so the figure is not quantised by the window edges.
// Completions after the last full window are not counted.
func rateValues(done []time.Duration, span, w time.Duration) []float64 {
	n, width := int(span/w), w
	if n < 1 {
		n, width = 1, span
	}
	first := make([]time.Duration, n)
	last := make([]time.Duration, n)
	count := make([]int, n)
	for _, t := range done {
		k := int(t / width)
		if k < 0 || k >= n {
			continue
		}
		if count[k] == 0 || t < first[k] {
			first[k] = t
		}
		last[k] = max(last[k], t)
		count[k]++
	}
	var rates []float64
	for k := range count {
		if count[k] > 1 && last[k] > first[k] {
			rates = append(rates, float64(count[k]-1)/(last[k]-first[k]).Seconds())
		}
	}
	return rates
}

func p50(xs []float64) float64 { return percentile(xs, 50) }
func p99(xs []float64) float64 { return percentile(xs, 99) }

// ratio is a/b, or 0 when b is 0, so an idle layer reports 0 rather
// than a NaN the JSON record cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
