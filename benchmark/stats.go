package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p ≤ 100) of v by the
// nearest-rank rule: the smallest value with at least p % of the samples at
// or below it. It never interpolates, so a reported latency is always one
// that was observed.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that
// is what the spread rule of the benchmark contract is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return median(v), median(v)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
