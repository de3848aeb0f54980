package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place), and
// how many samples lie beyond it.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	r := int(math.Ceil(q*float64(len(xs)))) - 1
	if r < 0 {
		r = 0
	}
	return xs[r], len(xs) - 1 - r
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
