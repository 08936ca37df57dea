package main

import (
	"math"
	"sort"
)

// minBeyondTail is how many samples must lie beyond a percentile before
// it is reported as a tail: with fewer, the "p99" of a run is one or two
// unlucky samples, not a tail.
const minBeyondTail = 10

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs is not modified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile returns the q-quantile of xs only when at least
// minBeyondTail samples lie beyond it (n·(1−q) ≥ 10, so p99 needs 1000
// samples); ok is false otherwise.
func tailQuantile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	// The rank at or below the quantile, computed with a small epsilon
	// so that 0.99·1000 is 990 and not 989.999….
	atOrBelow := int(math.Ceil(q*float64(n) - 1e-9))
	if n-atOrBelow < minBeyondTail {
		return 0, false
	}
	return quantile(xs, q), true
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
