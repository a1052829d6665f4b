package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"rtle/internal/core"
	"rtle/internal/htm"
)

// PromWriter renders metric families in the Prometheus text exposition
// format (version 0.0.4). It is the only code in the tree that knows the
// format; Snapshot.WritePrometheus and the server's wire-level registry are
// lists of families handed to it. The first write error sticks: later calls
// do nothing and Err reports it.
type PromWriter struct {
	w    io.Writer
	err  error
	name string // the family samples are being written for
}

// NewPromWriter returns a writer rendering to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first error a write met.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// Family opens the family name of the given type ("counter", "gauge",
// "histogram"); the samples that follow belong to it.
func (p *PromWriter) Family(name, typ, help string) {
	p.name = name
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelSet renders key, value pairs — and last, when given, one label more,
// already rendered — as {k1="v1",k2="v2"}; no label at all is "".
func labelSet(kv []string, last string) string {
	var b []byte
	for i := 0; i+1 < len(kv); i += 2 {
		b = fmt.Appendf(b, "%s=%q,", kv[i], kv[i+1])
	}
	if b = append(b, last...); len(b) == 0 {
		return ""
	}
	return "{" + strings.TrimSuffix(string(b), ",") + "}"
}

// Sample writes one sample of the open family: an integer or a float64
// value (floats in %g form), labelled with the key, value pairs given.
func (p *PromWriter) Sample(v any, labels ...string) {
	p.printf("%s%s %v\n", p.name, labelSet(labels, ""), v)
}

// Metric writes a family that is one unlabelled sample.
func (p *PromWriter) Metric(name, typ, help string, v any) {
	p.Family(name, typ, help)
	p.Sample(v)
}

// Histogram writes one label set of the open histogram family from a log2
// histogram: a cumulative line per non-empty bucket, +Inf, sum and count.
// With seconds set the observations are nanoseconds and bounds and sum are
// rendered in seconds; otherwise they are plain counts and a bucket's bound
// is the largest value it admits.
func (p *PromWriter) Histogram(l *LatencySnapshot, seconds bool, labels ...string) {
	var cum uint64
	for b := 0; b < NumLatencyBuckets; b++ {
		if l.Counts[b] == 0 {
			continue
		}
		cum += l.Counts[b]
		var le any = uint64(1)<<(b+1) - 1
		if seconds {
			le = BucketUpperBoundSeconds(b)
		}
		p.printf("%s_bucket%s %d\n", p.name, labelSet(labels, fmt.Sprintf(`le="%v"`, le)), cum)
	}
	p.printf("%s_bucket%s %d\n", p.name, labelSet(labels, `le="+Inf"`), l.Count)
	var sum any = l.SumNanos
	if seconds {
		sum = float64(l.SumNanos) / 1e9
	}
	set := labelSet(labels, "")
	p.printf("%s_sum%s %v\n%s_count%s %d\n", p.name, set, sum, p.name, set, l.Count)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. Counter values are cumulative since the registry was created;
// pass a Delta snapshot to export interval values instead.
func (snap *Snapshot) WritePrometheus(w io.Writer) error {
	p := NewPromWriter(w)
	st := &snap.Stats
	seconds := func(nanos int64) float64 { return float64(nanos) / 1e9 }

	p.Metric("rtle_ops_total", "counter", "Completed atomic blocks.", st.Ops)

	p.Family("rtle_commits_total", "counter", "Committed atomic blocks by execution path.")
	for k, n := range [core.NumCommitKinds]uint64{
		st.FastCommits, st.SlowCommits, st.LockRuns,
		st.STMCommitsHTM, st.STMCommitsLock, st.STMCommitsRO,
	} {
		p.Sample(n, "kind", core.CommitKind(k).String())
	}

	p.Family("rtle_attempts_total", "counter", "Transaction attempts by path.")
	p.Sample(st.FastAttempts, "path", "fast")
	p.Sample(st.SlowAttempts, "path", "slow")
	p.Sample(st.STMStarts, "path", "stm")

	p.Family("rtle_aborts_total", "counter", "Failed hardware attempts by path and reason.")
	for i := 1; i < htm.NumReasons; i++ {
		reason := htm.AbortReason(i).String()
		p.Sample(st.FastAborts[i], "path", "fast", "reason", reason)
		p.Sample(st.SlowAborts[i], "path", "slow", "reason", reason)
	}

	p.Family("rtle_injected_faults_total", "counter", "Hardware aborts forced by the fault injector, by reason.")
	for i := 1; i < htm.NumReasons; i++ {
		p.Sample(st.InjectedAborts[i], "reason", htm.AbortReason(i).String())
	}

	p.Metric("rtle_subscription_aborts_total", "counter", "Fast-path aborts caused by lock subscription.", st.SubscriptionAborts)
	p.Metric("rtle_stm_aborts_total", "counter", "Software-transaction validation failures.", st.STMAborts)
	p.Metric("rtle_validations_total", "counter", "Value-based read-set validations.", st.Validations)
	p.Metric("rtle_lock_hold_seconds_total", "counter", "Time spent holding the fallback lock.", seconds(st.LockHoldNanos))
	p.Metric("rtle_stm_seconds_total", "counter", "Time spent inside software transactions.", seconds(st.STMTimeNanos))
	p.Metric("rtle_resizes_total", "counter", "Adaptive FG-TLE orec-array resizes.", st.Resizes)
	p.Metric("rtle_mode_switches_total", "counter", "Mode changes: FG-TLE writers-admitted/readers-only flips, adaptive FG-TLE switches to and from TLE, guard retreats and returns.", st.ModeSwitches)
	p.Metric("rtle_threads", "gauge", "Observed worker threads.", snap.Threads)

	p.Family("rtle_atomic_latency_seconds", "histogram", "Whole-Atomic-call latency by execution path.")
	for path := 0; path < core.NumPaths; path++ {
		if l := &snap.Latency[path]; l.Count > 0 {
			p.Histogram(l, true, "path", core.Path(path).String())
		}
	}

	p.Metric("rtle_trace_dropped_total", "counter", "Path transitions lost to trace-ring overwrites.", snap.TraceDropped)
	return p.Err()
}

// WriteJSON renders the snapshot as indented JSON.
func (snap *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
