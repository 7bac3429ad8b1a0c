package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100): the
// smallest sample with at least p % of the samples at or below it. Empty
// input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is ⌈p/100 · n⌉ clamped to [1, n]; the epsilon keeps 99.9 %
// of 10 000 at rank 9 990 despite 99.9/100 not being a binary fraction.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// median averages the two middle samples of an even-sized input, so a
// handful of set-up or iteration timings does not jump between neighbours.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// resolvedPercentile is the percentile rule: the highest of p50, p90 and
// p99 that still has at least ten samples beyond it, or 0 when not even
// the median does (fewer than 20 samples).
func resolvedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99} {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// tailLatency is latency_tail_ms: the latency at the resolved percentile.
// serve-mix, with some ten thousand requests in a window, reports its p99.
// The batch workloads complete four or five operations in a window; the
// slowest of five says how the host's other tenants behaved during one of
// them, not how the program did, so below twenty samples the tail is the
// median — the highest percentile that can honestly be stated.
func tailLatency(xs []float64) float64 {
	return percentile(xs, max(resolvedPercentile(len(xs)), 50))
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method) — the spread the
// acceptance rule of BENCHMARK.json is stated in. Fewer than two samples,
// or a zero median, give 0.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
