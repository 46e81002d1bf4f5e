package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a tail is reported at, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail applies the percentile rule: report the highest percentile that has
// at least ten samples beyond it, with the sample count behind it. With fewer
// than twenty samples no percentile qualifies and the maximum is reported as
// percentile 100, so a short run still yields a value and says what it is.
func tail(samples []float64) (value, pct float64, n int) {
	n = len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(samples)
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return nearestRank(s, p), p, n
		}
	}
	return s[n-1], 100, n
}

// median is the 50th percentile by nearest rank, averaging the two middle
// samples of an even count.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sorted(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest rank of the p-th percentile of n samples. The
// epsilon keeps a product such as 99.9% of 10000 from rounding up a rank.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// nearestRank returns the p-th percentile of sorted samples s.
func nearestRank(s []float64, p float64) float64 { return s[rank(p, len(s))-1] }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
