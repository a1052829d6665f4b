package obs

import (
	"reflect"
	"time"

	"rtle/internal/core"
	"rtle/internal/htm"
)

// LatencySnapshot is a log2 latency histogram read out of a Histogram or
// merged from threads' slots: Counts[i] holds observations that fell in
// [2^i, 2^(i+1)) nanoseconds.
type LatencySnapshot = core.Latency

// ThreadSnapshot is one thread's view inside a Snapshot.
type ThreadSnapshot struct {
	Thread int        `json:"thread"`
	Method string     `json:"method"`
	Stats  core.Stats `json:"stats"`
}

// Snapshot is a coherent point-in-time aggregate of a Registry. Coherent
// means: even while workers run, Stats.TotalCommits() <= Stats.Ops and, per
// hardware path, attempts >= commits + aborts, because every thread's part
// is its state at a block boundary (the one documented exception is ALE,
// whose Stats dual-book software sections by design, so its TotalCommits
// exceeds Ops even at rest).
type Snapshot struct {
	// TakenUnixNanos is when the snapshot was read.
	TakenUnixNanos int64 `json:"taken_unix_nanos"`
	// ElapsedNanos is the time since the registry was created (for
	// cumulative snapshots) or since the previous snapshot (for deltas).
	ElapsedNanos int64 `json:"elapsed_nanos"`
	// Threads is the number of shards aggregated.
	Threads int `json:"threads"`
	// Stats aggregates every shard into the same counter layout the
	// methods report after quiescing.
	Stats core.Stats `json:"stats"`
	// PerThread holds each thread's individual counters.
	PerThread []ThreadSnapshot `json:"per_thread"`
	// Latency aggregates the per-path latency histograms of the sampled
	// blocks (one in 16 per thread), indexed by core.Path.
	Latency [core.NumPaths]LatencySnapshot `json:"latency"`
	// Trace is the sampled path-transition ring, oldest first.
	Trace []TraceEvent `json:"trace,omitempty"`
	// TraceDropped counts transitions lost to ring overwrites.
	TraceDropped uint64 `json:"trace_dropped"`
}

// Snapshot merges every thread's slot into a coherent point-in-time view
// without stopping the workers. It also becomes the baseline for the next Delta.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	shards := make([]*shard, len(r.shards))
	copy(shards, r.shards)
	var trace []TraceEvent
	if r.traceLen > 0 {
		trace = make([]TraceEvent, 0, r.traceLen)
		start := r.traceNext - r.traceLen
		if start < 0 {
			start += len(r.trace)
		}
		for i := 0; i < r.traceLen; i++ {
			trace = append(trace, r.trace[(start+i)%len(r.trace)])
		}
	}
	dropped := r.traceDropped
	r.mu.Unlock()

	now := time.Now()
	snap := &Snapshot{
		TakenUnixNanos: now.UnixNano(),
		ElapsedNanos:   now.Sub(r.start).Nanoseconds(),
		Threads:        len(shards),
		PerThread:      make([]ThreadSnapshot, 0, len(shards)),
		Trace:          trace,
		TraceDropped:   dropped,
	}
	for _, s := range shards {
		st, lat := s.slot.Read()
		snap.Stats.Merge(&st)
		snap.PerThread = append(snap.PerThread, ThreadSnapshot{
			Thread: s.id, Method: s.method, Stats: st,
		})
		for p := range lat {
			agg := &snap.Latency[p]
			for b, n := range lat[p].Counts {
				agg.Counts[b] += n
			}
			agg.Count += lat[p].Count
			agg.SumNanos += lat[p].SumNanos
		}
	}
	r.prev.Store(snap)
	return snap
}

// Delta returns snap - prev field-by-field: the activity between the two
// snapshots, with ElapsedNanos set to the interval. Trace is the events
// recorded after prev was taken.
func (snap *Snapshot) Delta(prev *Snapshot) *Snapshot {
	if prev == nil {
		c := *snap
		return &c
	}
	d := &Snapshot{
		TakenUnixNanos: snap.TakenUnixNanos,
		ElapsedNanos:   snap.TakenUnixNanos - prev.TakenUnixNanos,
		Threads:        snap.Threads,
		Stats:          subStats(snap.Stats, prev.Stats),
		TraceDropped:   snap.TraceDropped - prev.TraceDropped,
	}
	for p := 0; p < core.NumPaths; p++ {
		for b := 0; b < NumLatencyBuckets; b++ {
			d.Latency[p].Counts[b] = snap.Latency[p].Counts[b] - prev.Latency[p].Counts[b]
		}
		d.Latency[p].Count = snap.Latency[p].Count - prev.Latency[p].Count
		d.Latency[p].SumNanos = snap.Latency[p].SumNanos - prev.Latency[p].SumNanos
	}
	prevThreads := make(map[int]*core.Stats, len(prev.PerThread))
	for i := range prev.PerThread {
		prevThreads[prev.PerThread[i].Thread] = &prev.PerThread[i].Stats
	}
	for _, ts := range snap.PerThread {
		if p, ok := prevThreads[ts.Thread]; ok {
			ts.Stats = subStats(ts.Stats, *p)
		}
		d.PerThread = append(d.PerThread, ts)
	}
	for _, ev := range snap.Trace {
		if ev.UnixNanos > prev.TakenUnixNanos {
			d.Trace = append(d.Trace, ev)
		}
	}
	return d
}

// subStats returns a - b for every counter field, via reflection so a new
// Stats field cannot be silently dropped from deltas.
func subStats(a, b core.Stats) core.Stats {
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		f := av.Field(i)
		g := bv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() - g.Uint())
		case reflect.Int64:
			f.SetInt(f.Int() - g.Int())
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(f.Index(j).Uint() - g.Index(j).Uint())
			}
		}
	}
	return a
}

// DeltaSince returns the activity since the last Snapshot/DeltaSince call on
// this registry (or since creation for the first call): a convenience for
// periodic rate sampling.
func (r *Registry) DeltaSince() *Snapshot {
	prev := r.prev.Load()
	return r.Snapshot().Delta(prev)
}

// Throughput returns completed atomic blocks per second over the snapshot's
// elapsed interval.
func (snap *Snapshot) Throughput() float64 {
	if snap.ElapsedNanos <= 0 {
		return 0
	}
	return float64(snap.Stats.Ops) / (float64(snap.ElapsedNanos) / 1e9)
}

// AbortRate returns hardware aborts per hardware attempt.
func (snap *Snapshot) AbortRate() float64 {
	attempts := snap.Stats.FastAttempts + snap.Stats.SlowAttempts
	if attempts == 0 {
		return 0
	}
	var aborts uint64
	for i := 0; i < htm.NumReasons; i++ {
		aborts += snap.Stats.FastAborts[i] + snap.Stats.SlowAborts[i]
	}
	return float64(aborts) / float64(attempts)
}
