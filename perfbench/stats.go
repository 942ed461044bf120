package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of an
// ascending sample: the smallest value with at least q% of the sample at
// or below it. An empty sample reads 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// beyond counts the samples of an ascending sample that exceed v.
func beyond(sorted []int64, v int64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// sortedCopy returns xs in ascending order, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianInt is median over int64 samples.
func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}
