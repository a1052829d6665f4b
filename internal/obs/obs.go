// Package obs is the live-observability layer: a metrics registry that the
// synchronization methods publish into while they run.
//
// The quiescent counters of core.Stats answer "what happened" after a run;
// obs answers "what is happening" during one. A Registry implements
// core.Observer: install it via Policy.Observer (or rtle.WithObserver) and
// every thread the method creates gets a core.Slot. At the end of every
// atomic block the thread copies its plain Stats into its slot under the
// slot's own mutex; one block in 16 (the thread's 1st, 17th, ...) is also
// timed on the monotonic clock into the slot's per-path log2 histogram.
// A thread also reports each change of its commit path, which feeds a
// trace of path transitions. Registry.Snapshot merges the slots at any
// moment without stopping the workers.
//
// Each slot holds one thread's state at a block boundary, so a snapshot
// is coherent by construction: TotalCommits <= Ops and, per hardware path,
// attempts >= commits + aborts. A snapshot of threads at rest equals their
// merged Stats exactly. A thread parked inside a block (waiting for a lock,
// say) shows the state it published at its previous block's end, and a
// reader never waits for it.
//
// On avl_mixed's shape (FG-TLE(256), 8192 keys, 20:20:60, two threads, two
// vCPUs, alternated 0.5 s windows in separate processes), observer-on ÷
// observer-off read 0.81–0.83 while every event was mirrored into
// per-thread atomic counters and every block read the wall clock twice,
// and reads 0.95–0.97 with publication once per block (three sets each,
// of 30, 60 and 40 pairs).
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/core"
)

// NumLatencyBuckets is the number of log2-spaced histogram buckets (see
// core.NumLatencyBuckets).
const NumLatencyBuckets = core.NumLatencyBuckets

// Histogram is a lock-free log2 latency histogram: Observe is wait-free and
// safe for any number of concurrent writers (internal/server's per-op wire
// latency series). A thread's own histograms are core.Latency, which
// needs no atomics.
type Histogram struct {
	counts [NumLatencyBuckets]atomic.Uint64
	sum    atomic.Int64 // total nanos, for mean latency
}

// Observe records one latency sample.
func (h *Histogram) Observe(nanos int64) {
	h.counts[core.LatencyBucket(nanos)].Add(1)
	h.sum.Add(nanos)
}

// Snapshot reads the histogram into an aggregate value. It is safe against
// concurrent Observe calls: sum is loaded before the counts, so the mean
// stays well-defined under skew.
func (h *Histogram) Snapshot() LatencySnapshot {
	var l LatencySnapshot
	l.SumNanos = h.sum.Load()
	for b := 0; b < NumLatencyBuckets; b++ {
		n := h.counts[b].Load()
		l.Counts[b] = n
		l.Count += n
	}
	return l
}

// BucketUpperBoundSeconds returns the exclusive upper bound of histogram
// bucket b in seconds (bucket b covers [2^b, 2^(b+1)) nanoseconds), the `le`
// label value Prometheus exporters render.
func BucketUpperBoundSeconds(b int) float64 {
	return float64(uint64(1)<<uint(b+1)) / 1e9
}

// BucketLowerBoundSeconds returns the inclusive lower bound of histogram
// bucket b in seconds. Together with the upper bound it brackets every
// sample the bucket holds, which is what sub-bucket percentile
// interpolation needs: a log2 bucket is wide (its bounds differ by 2×), so
// reporting the raw upper bound quantizes every quantile falling inside it
// to one identical value.
func BucketLowerBoundSeconds(b int) float64 {
	return float64(uint64(1)<<uint(b)) / 1e9
}

// Config tunes a Registry. The zero value selects the defaults.
type Config struct {
	// TraceCapacity bounds the path-transition trace ring; older events
	// are overwritten. Default 1024. Negative disables tracing.
	TraceCapacity int
}

func (c Config) traceCapacity() int {
	if c.TraceCapacity == 0 {
		return 1024
	}
	if c.TraceCapacity < 0 {
		return 0
	}
	return c.TraceCapacity
}

// TraceEvent is one recorded path transition: at UnixNanos, the thread
// completed an atomic block on To after its previous block completed on From.
type TraceEvent struct {
	UnixNanos int64           `json:"unix_nanos"`
	Thread    int             `json:"thread"`
	Method    string          `json:"method"`
	From      core.Path       `json:"-"`
	To        core.Path       `json:"-"`
	FromName  string          `json:"from"`
	ToName    string          `json:"to"`
	Kind      core.CommitKind `json:"-"`
	KindName  string          `json:"commit"`
}

// Registry implements core.Observer: it hands a slot to every thread and
// merges them on demand. The zero value is NOT ready; use NewRegistry.
type Registry struct {
	mu     sync.Mutex // guards shards slice and trace ring
	shards []*shard

	trace        []TraceEvent // ring buffer, len == cap
	traceNext    int          // next write position
	traceLen     int          // valid entries (<= len(trace))
	traceDropped uint64       // transitions overwritten

	start time.Time
	prev  atomic.Pointer[Snapshot] // last snapshot, for Registry.Delta
}

// NewRegistry returns a Registry with cfg (zero value for defaults).
func NewRegistry(cfg Config) *Registry {
	r := &Registry{start: time.Now()}
	if n := cfg.traceCapacity(); n > 0 {
		r.trace = make([]TraceEvent, n)
	}
	return r
}

// ObserveThread implements core.Observer. With tracing disabled the thread
// gets no path-transition hook at all.
func (r *Registry) ObserveThread(method string) *core.Slot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &shard{reg: r, id: len(r.shards), method: method}
	if len(r.trace) > 0 {
		s.slot = core.NewSlot(s)
	} else {
		s.slot = core.NewSlot(nil)
	}
	r.shards = append(r.shards, s)
	return s.slot
}

// record stamps and appends a trace event (called by shards). The stamp is taken under the lock: the ring is read oldest
// first, so ring order must be timestamp order, and two threads that read
// the clock before queueing for the lock can enter it the other way round.
func (r *Registry) record(ev TraceEvent) {
	r.mu.Lock()
	ev.UnixNanos = time.Now().UnixNano()
	if r.traceLen == len(r.trace) {
		r.traceDropped++
	} else {
		r.traceLen++
	}
	r.trace[r.traceNext] = ev
	r.traceNext = (r.traceNext + 1) % len(r.trace)
	r.mu.Unlock()
}

// shard is one observed thread: its slot, and its path-transition hook.
type shard struct {
	reg    *Registry
	id     int
	method string
	slot   *core.Slot
}

// PathChanged implements core.ThreadObserver: it records the thread's
// transition into the registry's trace ring.
func (s *shard) PathChanged(from, to core.Path, k core.CommitKind) {
	s.reg.record(TraceEvent{
		Thread:   s.id,
		Method:   s.method,
		From:     from,
		To:       to,
		FromName: from.String(),
		ToName:   to.String(),
		Kind:     k,
		KindName: k.String(),
	})
}
