package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of a sorted
// sample: the smallest value with at least q of the sample at or below
// it. An empty sample gives 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be worth reporting (choosing-metrics §1).
const minBeyond = 10

// tailQuantile picks the highest quantile not above limit that still
// has minBeyond samples beyond it; with too few samples even for that
// it degrades to the median, so a tail figure always exists and is
// never a single outlier.
func tailQuantile(n int, limit float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	return math.Max(0.5, math.Min(q, limit))
}

// tail returns the tailQuantile value of a sample and the quantile used.
func tail(xs []float64, limit float64) (v, q float64) {
	q = tailQuantile(len(xs), limit)
	if q == 0.5 {
		return median(xs), q
	}
	return quantile(sortedCopy(xs), q), q
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), the estimator the acceptance driver
// applies to ten runs of each metric.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		j = min(max(j, 1), ld-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread the driver holds against
// each metric's bound.
func iqrSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
