// Package obs is the live-observability layer: a lock-free metrics registry
// that the synchronization methods publish into while they run.
//
// The quiescent counters of core.Stats answer "what happened" after a run;
// obs answers "what is happening" during one. A Registry implements
// core.Observer: install it via Policy.Observer (or rtle.WithObserver) and
// every thread the method creates gets a private shard of atomic counters
// mirroring core.Stats, plus per-path latency histograms and a sampled trace
// of path transitions. Registry.Snapshot aggregates the shards at any moment
// without stopping the workers, and guarantees a coherent view: the counters
// in a snapshot always satisfy TotalCommits <= Ops and, per hardware path,
// attempts >= commits + aborts.
//
// The coherence argument is purely ordering-based (no locks on the hot
// path). A shard's writer increments its ops counter before the per-kind
// commit counter of the same event; the snapshot reader loads the commit
// counters first and the ops counter afterwards. Any commit the reader sees
// therefore has its op already counted. Symmetrically, attempts are
// incremented before their outcome and read after everything else.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/core"
	"rtle/internal/htm"
)

// NumLatencyBuckets is the number of log2-spaced histogram buckets. Bucket i
// counts latencies in [2^i, 2^(i+1)) nanoseconds (bucket 0 also absorbs 0),
// so 64 buckets cover every int64 nanosecond value.
const NumLatencyBuckets = 64

// bucketOf maps a latency to its histogram bucket: floor(log2(n)), clamped.
func bucketOf(nanos int64) int {
	if nanos <= 0 {
		return 0
	}
	b := bits.Len64(uint64(nanos)) - 1
	if b >= NumLatencyBuckets {
		return NumLatencyBuckets - 1
	}
	return b
}

// Histogram is a lock-free log2 latency histogram: Observe is wait-free and
// safe for any number of concurrent writers. The Registry uses one per
// (shard, path); other subsystems (internal/server's per-op wire latency
// series) embed their own.
type Histogram struct {
	counts [NumLatencyBuckets]atomic.Uint64
	sum    atomic.Int64 // total nanos, for mean latency
}

// Observe records one latency sample.
func (h *Histogram) Observe(nanos int64) {
	h.counts[bucketOf(nanos)].Add(1)
	h.sum.Add(nanos)
}

// Snapshot reads the histogram into an aggregate value. Like the Registry's
// snapshots it is safe against concurrent Observe calls: sum is loaded before
// the counts, so the mean stays well-defined under skew.
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
	// TraceSample records only every Nth transition (per thread), so hot
	// workloads don't serialize on the trace mutex. Default 1 (record
	// all).
	TraceSample int
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

func (c Config) traceSample() int {
	if c.TraceSample <= 0 {
		return 1
	}
	return c.TraceSample
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

// Registry implements core.Observer: it hands a Shard to every thread and
// aggregates them on demand. The zero value is NOT ready; use NewRegistry.
type Registry struct {
	cfg Config

	mu     sync.Mutex // guards shards slice and trace ring
	shards []*Shard

	trace        []TraceEvent // ring buffer, len == cap
	traceNext    int          // next write position
	traceLen     int          // valid entries (<= len(trace))
	traceDropped uint64       // transitions overwritten or sampled away

	start time.Time
	prev  atomic.Pointer[Snapshot] // last snapshot, for Registry.Delta
}

// NewRegistry returns a Registry with cfg (zero value for defaults).
func NewRegistry(cfg Config) *Registry {
	r := &Registry{cfg: cfg, start: time.Now()}
	if n := cfg.traceCapacity(); n > 0 {
		r.trace = make([]TraceEvent, n)
	}
	return r
}

// ObserveThread implements core.Observer.
func (r *Registry) ObserveThread(method string) core.ThreadObserver {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Shard{reg: r, id: len(r.shards), method: method, lastPath: -1}
	r.shards = append(r.shards, s)
	return s
}

// record stamps and appends a trace event (called by shards, already
// sampled). The stamp is taken under the lock: the ring is read oldest
// first, so ring order must be timestamp order, and two threads that read
// the clock before queueing for the lock can enter it the other way round.
func (r *Registry) record(ev TraceEvent) {
	r.mu.Lock()
	if len(r.trace) == 0 {
		r.mu.Unlock()
		return
	}
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

// Shard is the per-thread observer: a cache-friendly block of atomic
// counters mirroring core.Stats, written by exactly one thread and read by
// Registry.Snapshot at any time.
type Shard struct {
	reg    *Registry
	id     int
	method string

	ops      atomic.Uint64
	commits  [core.NumCommitKinds]atomic.Uint64
	extras   [core.NumCommitKinds]atomic.Uint64 // ExtraCommit (ALE dual-booking)
	attempts [core.NumPaths]atomic.Uint64       // fast, slow; stm slot = STMStarts

	fastAborts         [htm.NumReasons]atomic.Uint64
	slowAborts         [htm.NumReasons]atomic.Uint64
	injectedAborts     [htm.NumReasons]atomic.Uint64
	subscriptionAborts atomic.Uint64
	stmAborts          atomic.Uint64
	validations        atomic.Uint64

	lockHoldNanos atomic.Int64
	stmTimeNanos  atomic.Int64

	resizes      atomic.Uint64
	modeSwitches atomic.Uint64

	latency [core.NumPaths]Histogram

	// Single-writer trace state (only the owning thread touches these).
	lastPath    int8 // -1 before the first op
	transitionN int  // transitions seen, for sampling
}

// Method returns the method name this shard's thread belongs to.
func (s *Shard) Method() string { return s.method }

// Op implements core.ThreadObserver. Ordering: ops before commits, so a
// concurrent reader that loads commits first sees TotalCommits <= Ops.
func (s *Shard) Op(k core.CommitKind, latencyNanos int64) {
	s.ops.Add(1)
	s.commits[k].Add(1)
	p := k.Path()
	s.latency[p].Observe(latencyNanos)
	s.tracePath(p, k)
}

// tracePath records a path transition into the registry's trace ring.
func (s *Shard) tracePath(p core.Path, k core.CommitKind) {
	if s.reg == nil || len(s.reg.trace) == 0 {
		return
	}
	from := s.lastPath
	s.lastPath = int8(p)
	if from < 0 || core.Path(from) == p {
		return
	}
	s.transitionN++
	if sample := s.reg.cfg.traceSample(); s.transitionN%sample != 0 {
		return
	}
	s.reg.record(TraceEvent{
		Thread:   s.id,
		Method:   s.method,
		From:     core.Path(from),
		To:       p,
		FromName: core.Path(from).String(),
		ToName:   p.String(),
		Kind:     k,
		KindName: k.String(),
	})
}

// ExtraCommit implements core.ThreadObserver (ALE's dual-booked software
// sections). Kept out of the commits array so the TotalCommits <= Ops
// invariant holds per shard; Snapshot folds extras back into Stats.
func (s *Shard) ExtraCommit(k core.CommitKind) { s.extras[k].Add(1) }

// Attempt implements core.ThreadObserver.
func (s *Shard) Attempt(p core.Path) { s.attempts[p].Add(1) }

// Abort implements core.ThreadObserver.
func (s *Shard) Abort(p core.Path, reason htm.AbortReason, subscription, injected bool) {
	if subscription {
		s.subscriptionAborts.Add(1)
	}
	if injected {
		s.injectedAborts[reason].Add(1)
	}
	if p == core.PathSlow {
		s.slowAborts[reason].Add(1)
	} else {
		s.fastAborts[reason].Add(1)
	}
}

// STMAbort implements core.ThreadObserver.
func (s *Shard) STMAbort() { s.stmAborts.Add(1) }

// Validation implements core.ThreadObserver.
func (s *Shard) Validation() { s.validations.Add(1) }

// LockHold implements core.ThreadObserver.
func (s *Shard) LockHold(nanos int64) { s.lockHoldNanos.Add(nanos) }

// STMTime implements core.ThreadObserver.
func (s *Shard) STMTime(nanos int64) { s.stmTimeNanos.Add(nanos) }

// Resize implements core.ThreadObserver.
func (s *Shard) Resize() { s.resizes.Add(1) }

// ModeSwitch implements core.ThreadObserver.
func (s *Shard) ModeSwitch() { s.modeSwitches.Add(1) }
