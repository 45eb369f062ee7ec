package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail estimate resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// ascending samples, and whether at least minBeyond samples lie beyond it.
// The median is always reported (ok is true for any non-empty input at
// p <= 50).
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from moving the rank up by one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], p <= 50 || n-rank >= minBeyond
}

// median returns the median of the samples (the mean of the middle two for
// an even count), leaving the input unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedCopy returns the samples in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
