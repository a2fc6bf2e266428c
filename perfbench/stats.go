package main

import (
	"math"
	"sort"
	"time"

	"oocphylo/internal/service"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 for none): the
// smallest value with at least q of the samples at or below it. With
// fewer than 1/(1-q) samples that is the largest.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// medianMS is the median of ds in milliseconds.
func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return median(xs)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// lnlBits renders a likelihood the way -lnl-bits and the daemon do.
func lnlBits(lnl float64) string { return service.FormatLnLBits(lnl) }
