package main

import (
	"math"
	"testing"
)

func TestPercentileIsAnOrderStatistic(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{
		{0.50, 50}, // 5 of 10 at or below, not the mean of 50 and 60
		{0.90, 90},
		{0.99, 100},
		{1, 100},
		{0.01, 10},
		{0.101, 20}, // just past one tenth needs the second sample
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.999); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedianEvenAndOdd(t *testing.T) {
	in := []float64{9, 1, 5, 3}
	if got := median(in); got != 4 {
		t.Errorf("median of four = %v, want the mean of the middle two, 4", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestQuietIsTheMeanOfTheBestTenth(t *testing.T) {
	vs := make([]float64, 50)
	for i := range vs {
		vs[(i*7)%50] = float64(i + 1) // 1..50, shuffled
	}
	if got := quiet(vs, "higher"); got != 48 {
		t.Errorf("quiet of 1..50, higher better = %v, want 48, the mean of 46..50", got)
	}
	if got := quiet(vs, "lower"); got != 3 {
		t.Errorf("quiet of 1..50, lower better = %v, want 3, the mean of 1..5", got)
	}
	if vs[0] != 1 || vs[7] != 2 {
		t.Error("quiet reordered its argument")
	}
	if got := quiet([]float64{3, 9, 6}, "higher"); got != 9 {
		t.Errorf("quiet of three values = %v, want the best one, 9", got)
	}
	if got := quiet(nil, "lower"); got != 0 {
		t.Errorf("quiet of nothing = %v, want 0", got)
	}
}

// The expected values are statistics.quantiles(vs, n=4) from Python 3.11,
// the function the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestClassify(t *testing.T) {
	lower := &metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := &metricSpec{Name: "ops", Better: "higher", Bound: 0.08}
	tight := func(c float64) summary { return summarize("", []float64{c * 0.99, c, c, c, c * 1.01}) }
	wide := func(c float64) summary { return summarize("", []float64{c * 0.7, c * 0.8, c, c * 1.2, c * 1.3}) }
	for _, c := range []struct {
		name string
		m    *metricSpec
		a, b summary
		want string
	}{
		{"latency up 20 %", lower, tight(100), tight(120), classRegressed},
		{"latency up 5 %", lower, tight(100), tight(105), classUnchanged},
		{"latency down 5 %", lower, tight(100), tight(95), classImproved},
		{"throughput down 20 %", higher, tight(100), tight(80), classRegressed},
		{"throughput up 5 %", higher, tight(100), tight(105), classImproved},
		{"spread wider than the bound is never unchanged", lower, wide(100), wide(101), classUnresolved},
		{"wide, but every run of b beats every run of a", lower, wide(100), wide(40), classImproved},
	} {
		if got, _ := classify(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
