package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of sorted by nearest rank: the smallest
// sample with at least a share q of the samples at or below it. Quantiles
// are always taken from sorted raw samples, never from histogram buckets, so
// they carry no quantisation step.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs (mean of the middle two for an even
// count) without modifying xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), which
// is what the benchmark driver uses for its spread criterion. It needs at
// least two samples.
func quartiles(xs []float64) (q [3]float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// dueCount is how many operations of an open-loop schedule at rate per second
// are due once elapsedNs have passed since its start. It is computed from the
// schedule's origin on every call, so rounding never accumulates into drift.
func dueCount(elapsedNs int64, rate int) int64 {
	return elapsedNs * int64(rate) / 1e9
}

// dueAt is the offset from the schedule's start at which operation i (from 0)
// is due.
func dueAt(i int64, rate int) int64 {
	return i * 1e9 / int64(rate)
}

// slicesFor is how many timed slices fit one phase when budget is shared by
// phases phases that each begin with one warm-up: the issue's rule is to cut
// slices, never slice length.
func slicesFor(budget time.Duration, phases int) int {
	return int(max((budget/time.Duration(phases)-warmLen)/sliceLen, 1))
}
