package main

import (
	"math"
	"sort"
)

// percentile returns the exact q-quantile (0 < q <= 1) of sorted by
// nearest rank: the smallest sample with at least q of the samples at or
// below it. No interpolation and no buckets — the value is always one of
// the samples. An empty slice yields 0.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle value of vs, the mean of the two middle values
// when len(vs) is even. vs is not modified.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), so
// the spread this program reports is the spread the driver computes. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i in 1..3
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

// quietShare is the share of a run's windows, counted from the better end,
// whose mean is the reported value. What disturbs a window on a shared
// host — a neighbour on the core, the cache or the memory bus — only ever
// slows it, and does so for seconds to minutes at a time, so a run's
// windows have a ceiling and a long tail below it: the median follows how
// much of the run was disturbed, the best tenth does not until nine tenths
// of the run are. Ten same-commit runs of avl_mixed in a noisy hour spread
// (IQR / median) by 23 % on the median of their windows, 20 % on the value
// a tenth in from the best, 16 % on the mean of the best tenth; a single
// best window is as steady in-process but on the wire workloads is the
// window a stall made look cheap.
const quietShare = 0.1

// quiet returns the mean of the best quietShare of vs (at least one value):
// the highest when better is "higher", the lowest otherwise.
func quiet(vs []float64, better string) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := max(1, int(quietShare*float64(n)))
	if better == "higher" {
		s = s[n-k:]
	} else {
		s = s[:k]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(k)
}

// summary is one metric's windows (or set-ups, or runs) reduced for
// printing and comparison. Value is the one number reported for the
// metric: the median unless the caller picks another statistic.
type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, vs []float64) summary {
	s := summary{Unit: unit, N: len(vs), Values: vs, Median: median(vs)}
	s.Value = s.Median
	s.Q1, s.Q3 = quartiles(vs)
	if len(vs) > 0 {
		s.Min, s.Max = vs[0], vs[0]
		for _, v := range vs[1:] {
			s.Min = math.Min(s.Min, v)
			s.Max = math.Max(s.Max, v)
		}
	}
	return s
}

// spread returns the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
