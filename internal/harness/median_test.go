package harness

import (
	"testing"
	"time"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// fakeResult builds a Result with the given throughput in ops/ms.
func fakeResult(opsPerMs uint64) *Result {
	return &Result{
		Elapsed: time.Millisecond,
		Total:   core.Stats{Ops: opsPerMs},
	}
}

// feed returns a run function yielding the given results in order.
func feed(t *testing.T, rs ...*Result) func() *Result {
	i := 0
	return func() *Result {
		if i >= len(rs) {
			t.Fatal("Median ran the experiment more times than n")
		}
		r := rs[i]
		i++
		return r
	}
}

func TestMedianOdd(t *testing.T) {
	got := Median(5, feed(t, fakeResult(50), fakeResult(10), fakeResult(30), fakeResult(40), fakeResult(20)))
	if got.Throughput() != 30 {
		t.Errorf("median of {10..50} = %v ops/ms, want 30", got.Throughput())
	}
}

// TestMedianEven is the regression test for the even-n case: Median used
// to return results[n/2] unconditionally — the *upper* of the two central
// runs — overstating the median of every even-length sample. Median sorts
// by rate and returns results[(n-1)/2], the slower central run.
func TestMedianEven(t *testing.T) {
	cases := []struct {
		name string
		runs []uint64
		want uint64
	}{
		// Central pair {20, 100}: the slower run is returned — the old
		// code returned 100.
		{"wide central pair", []uint64{10, 20, 100, 110}, 20},
		// Central pair {50, 52}, median value 51.
		{"adjacent pair", []uint64{1, 50, 52, 99}, 50},
		{"n=2", []uint64{30, 90}, 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rs := make([]*Result, len(c.runs))
			for i, ops := range c.runs {
				rs[i] = fakeResult(ops)
			}
			got := Median(len(rs), feed(t, rs...))
			if uint64(got.Throughput()) != c.want {
				t.Errorf("Median(%v) = %v ops/ms, want %d", c.runs, got.Throughput(), c.want)
			}
		})
	}
}

// TestMedianEvenDuplicate pins the even-n case when a non-central run ties
// the central pair in throughput: after the sort any run at the median
// value may sit at results[(n-1)/2], and each is a valid representative.
func TestMedianEvenDuplicate(t *testing.T) {
	got := Median(4, feed(t, fakeResult(40), fakeResult(40), fakeResult(40), fakeResult(200)))
	if got.Throughput() != 40 {
		t.Errorf("Median picked %v ops/ms, want 40", got.Throughput())
	}
}

func TestMedianNonPositiveN(t *testing.T) {
	got := Median(0, feed(t, fakeResult(7)))
	if got.Throughput() != 7 {
		t.Errorf("Median(0) should run once, got %v", got.Throughput())
	}
}

func TestMedianEndToEnd(t *testing.T) {
	res := Median(3, func() *Result {
		m := mem.New(1 << 16)
		meth := core.NewTLE(m, core.Policy{})
		a := m.AllocLines(1)
		return Run(meth, Config{Threads: 2, OpsPerThread: 200, Seed: 9},
			func(id int, th core.Thread) Worker {
				return func(r *rng.Xoshiro256) {
					th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
				}
			})
	})
	if res.Total.Ops != 400 {
		t.Fatalf("median run ops = %d, want 400", res.Total.Ops)
	}
}
