package main

import (
	"sort"
)

// quantile is a percentile held as an exact fraction, so that its
// nearest rank is computed without rounding error.
type quantile struct {
	name     string
	num, den int
}

// Quantiles the benchmark reports, in increasing order.
var (
	p10        = quantile{"p10", 1, 10}
	p50        = quantile{"p50", 1, 2}
	p90        = quantile{"p90", 9, 10}
	p99        = quantile{"p99", 99, 100}
	tailLadder = []quantile{p90, p99, {"p99.9", 999, 1000}, {"p99.99", 9999, 10000}, {"p99.999", 99999, 100000}}
)

// rank returns the 1-based nearest rank of q among n samples: the
// smallest rank with at least a share q of the samples at or below it.
func (q quantile) rank(n int) int {
	r := (q.num*n + q.den - 1) / q.den
	if r < 1 {
		r = 1
	}
	return r
}

// of returns the nearest-rank q-quantile of sorted, or 0 when empty.
func (q quantile) of(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[q.rank(len(sorted))-1]
}

// supported reports whether at least ten of n samples lie beyond q's
// nearest rank, the fewest that make a tail percentile worth reporting.
func (q quantile) supported(n int) bool { return n-q.rank(n) >= 10 }

// highestTail returns the highest percentile of the ladder that n
// samples support, and false when not even p90 is supported.
func highestTail(n int) (quantile, bool) {
	best, ok := quantile{}, false
	for _, q := range tailLadder {
		if q.supported(n) {
			best, ok = q, true
		}
	}
	return best, ok
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (the mean of the two middle samples
// for an even count), or 0 when empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method);
// with fewer than two samples both are the one sample, or 0.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// mean returns the arithmetic mean of xs, or 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
