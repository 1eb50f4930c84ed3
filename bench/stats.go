package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the tail percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90}

// pickTail returns the highest of tailPercentiles that has at least ten of n
// samples beyond it, or 0 if even p90 has not (n < 100): a percentile
// resting on fewer samples is one or two transactions' luck.
func pickTail(n int) float64 {
	for _, p := range tailPercentiles {
		if supported(n, p) {
			return p
		}
	}
	return 0
}

// supported reports whether n samples leave at least ten beyond percentile p.
// The product is rounded because 100*(1-0.9) is 9.999999999999998 in floats.
func supported(n int, p float64) bool {
	return math.Round(float64(n)*(1-p)*1e6)/1e6 >= 10
}

// quantile returns the nearest-rank p-quantile of the samples, in any order.
func quantile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of values; the mean of the middle two for an even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0 (a per-transaction figure of a layer that
// did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
