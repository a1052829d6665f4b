package harness

import (
	"encoding/csv"
	"io"
	"strconv"
)

// Record is one experiment data point flattened for export: the
// identifying axes, the paper-relevant derived metrics, and the raw
// counters, suitable for plotting the figures from CSV without re-running.
type Record struct {
	Method  string
	Threads int
	Label   string // free-form axis (mix, key range, ...)
	Seconds float64

	Ops          uint64
	Throughput   float64
	FastCommits  uint64
	SlowCommits  uint64
	LockRuns     uint64
	STMCommits   uint64
	FastAborts   uint64
	SlowAborts   uint64
	LockHoldMs   float64
	STMTimeMs    float64
	SlowHTMTput  float64
	LockPathTput float64
	Validations  float64
	LockFallback float64

	// ParallelRatio is Result.ParallelRatio: the two-spinner reading taken
	// before a multi-threaded point, 0 when none was.
	ParallelRatio float64
}

// Record flattens the result, labelling it with an axis description.
func (r *Result) Record(label string) Record {
	st := &r.Total
	var fastAborts, slowAborts uint64
	for i := range st.FastAborts {
		fastAborts += st.FastAborts[i]
		slowAborts += st.SlowAborts[i]
	}
	return Record{
		Method:       r.Method,
		Threads:      r.Threads,
		Label:        label,
		Seconds:      r.Elapsed.Seconds(),
		Ops:          st.Ops,
		Throughput:   r.Throughput(),
		FastCommits:  st.FastCommits,
		SlowCommits:  st.SlowCommits,
		LockRuns:     st.LockRuns,
		STMCommits:   st.STMCommitsHTM + st.STMCommitsLock + st.STMCommitsRO,
		FastAborts:   fastAborts,
		SlowAborts:   slowAborts,
		LockHoldMs:   float64(st.LockHoldNanos) / 1e6,
		STMTimeMs:    float64(st.STMTimeNanos) / 1e6,
		SlowHTMTput:  r.SlowHTMThroughput(),
		LockPathTput: r.LockPathThroughput(),
		Validations:  r.ValidationsPerTx(),
		LockFallback: st.LockFallbackFraction(),

		ParallelRatio: r.ParallelRatio,
	}
}

// csvHeader matches WriteCSV's row layout.
var csvHeader = []string{
	"method", "threads", "label", "seconds", "ops", "opsPerMs",
	"fastCommits", "slowCommits", "lockRuns", "stmCommits",
	"fastAborts", "slowAborts", "lockHoldMs", "stmTimeMs",
	"slowHtmOpsPerMs", "lockPathOpsPerMs", "validationsPerTx", "lockFallbackRate",
	"parallelRatio",
}

// WriteCSV emits records as CSV with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, r := range records {
		row := []string{
			r.Method, strconv.Itoa(r.Threads), r.Label, f(r.Seconds),
			u(r.Ops), f(r.Throughput),
			u(r.FastCommits), u(r.SlowCommits), u(r.LockRuns), u(r.STMCommits),
			u(r.FastAborts), u(r.SlowAborts), f(r.LockHoldMs), f(r.STMTimeMs),
			f(r.SlowHTMTput), f(r.LockPathTput), f(r.Validations), f(r.LockFallback),
			f(r.ParallelRatio),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
