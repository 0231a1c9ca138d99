package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs (mean of the two middle values for
// an even count), NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is the sample count a reported tail percentile must
// have strictly above it.
const tailMinBeyond = 10

// tail returns the highest whole percentile of xs that has at least
// tailMinBeyond samples strictly greater than it, and its value. ok is
// false when the sample is too small for any percentile to qualify.
func tail(xs []float64) (p int, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p = 99; p >= 1; p-- {
		v = percentile(s, float64(p))
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= tailMinBeyond {
			return p, v, true
		}
	}
	return 0, math.NaN(), false
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
