package harness

import (
	"bytes"
	"encoding/csv"
	"testing"
	"time"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func sampleResult() *Result {
	return &Result{
		Method:  "FG-TLE(256)",
		Threads: 4,
		Elapsed: 2 * time.Second,
		Total: core.Stats{
			Ops: 4000, FastCommits: 3000, SlowCommits: 500, LockRuns: 500,
			LockHoldNanos: int64(time.Second / 4),
			Validations:   10, STMStarts: 5,
		},
	}
}

func TestRecordFlattens(t *testing.T) {
	rec := sampleResult().Record("mix=20:20:60")
	if rec.Method != "FG-TLE(256)" || rec.Threads != 4 || rec.Label != "mix=20:20:60" {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.Throughput != 2.0 {
		t.Fatalf("Throughput = %v, want 2.0", rec.Throughput)
	}
	if rec.SlowHTMTput != 2.0 { // 500 commits / 250ms
		t.Fatalf("SlowHTMTput = %v, want 2.0", rec.SlowHTMTput)
	}
	if rec.LockFallback != 0.125 {
		t.Fatalf("LockFallback = %v, want 0.125", rec.LockFallback)
	}
}

func TestWriteCSVRoundTrips(t *testing.T) {
	recs := []Record{sampleResult().Record("a"), sampleResult().Record("b")}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	if rows[0][0] != "method" || len(rows[0]) != len(csvHeader) {
		t.Fatalf("header wrong: %v", rows[0])
	}
	if rows[1][2] != "a" || rows[2][2] != "b" {
		t.Fatalf("labels wrong: %v / %v", rows[1][2], rows[2][2])
	}
}

func TestMedianPicksMiddleRun(t *testing.T) {
	i := 0
	throughputs := []uint64{100, 900, 500} // median by throughput: 500
	res := Median(3, func() *Result {
		r := &Result{Elapsed: time.Second, Total: core.Stats{Ops: throughputs[i]}}
		i++
		return r
	})
	if res.Total.Ops != 500 {
		t.Fatalf("median picked ops=%d, want 500", res.Total.Ops)
	}
}

func TestMedianDegenerateN(t *testing.T) {
	calls := 0
	res := Median(0, func() *Result {
		calls++
		return &Result{Elapsed: time.Second, Total: core.Stats{Ops: 1}}
	})
	if calls != 1 || res == nil {
		t.Fatalf("Median(0) ran %d times", calls)
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
