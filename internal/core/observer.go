package core

import (
	"math/bits"
	"sync"
)

// This file defines what a thread publishes for live observability. A
// Method's threads count into their plain per-thread Stats; when
// Policy.Observer is set, every thread also gets a Slot from it and, at the
// end of every atomic block, copies its Stats into the slot under the
// slot's own mutex. An aggregator (internal/obs) reads the slots at any
// time without stopping the workers, and every copy it reads is one
// thread's state at a block boundary. With Policy.Observer nil a block
// pays one nil check.

// Path identifies one of the execution paths an atomic block can take, the
// axis along which the paper's evaluation (Figs. 5–10) breaks every
// statistic down.
type Path uint8

const (
	// PathFast is the uninstrumented HTM fast path.
	PathFast Path = iota
	// PathSlow is the instrumented HTM slow path (concurrent with a lock
	// holder), including RHNOrec's timestamp-bumping hardware commits.
	PathSlow
	// PathLock is the pessimistic path under the lock.
	PathLock
	// PathSTM is the software-transaction path (NOrec family, ALE's
	// buffered software sections).
	PathSTM

	// NumPaths is the number of distinct Path values.
	NumPaths = int(PathSTM) + 1
)

// String returns the path's name.
func (p Path) String() string {
	switch p {
	case PathFast:
		return "fast"
	case PathSlow:
		return "slow"
	case PathLock:
		return "lock"
	case PathSTM:
		return "stm"
	}
	return "unknown"
}

// CommitKind identifies which commit bucket a completed atomic block landed
// in. The six kinds correspond one-to-one with the commit counters of Stats
// (FastCommits, SlowCommits, LockRuns, STMCommitsHTM, STMCommitsLock,
// STMCommitsRO), i.e. with the terms of Stats.TotalCommits.
type CommitKind uint8

const (
	CommitFast CommitKind = iota
	CommitSlow
	CommitLock
	CommitSTMHTM
	CommitSTMLock
	CommitSTMRO

	// NumCommitKinds is the number of distinct CommitKind values.
	NumCommitKinds = int(CommitSTMRO) + 1
)

// Path maps a commit bucket onto the execution path it retired on.
func (k CommitKind) Path() Path {
	switch k {
	case CommitFast:
		return PathFast
	case CommitSlow:
		return PathSlow
	case CommitLock:
		return PathLock
	}
	return PathSTM
}

// String returns the kind's name.
func (k CommitKind) String() string {
	switch k {
	case CommitFast:
		return "fast"
	case CommitSlow:
		return "slow"
	case CommitLock:
		return "lock"
	case CommitSTMHTM:
		return "stm_htm"
	case CommitSTMLock:
		return "stm_lock"
	case CommitSTMRO:
		return "stm_ro"
	}
	return "unknown"
}

// ThreadObserver is the one live hook a thread calls: PathChanged runs at
// the end of an atomic block that completed on a different path from the
// thread's previous block — the path transitions obs's trace ring samples.
// The thread's goroutine calls it, outside the slot's mutex.
type ThreadObserver interface {
	PathChanged(from, to Path, k CommitKind)
}

// Observer hands out the slots threads publish into. Implementations must
// be safe for concurrent ObserveThread calls (threads can be created while
// others run). internal/obs provides the standard implementation
// (Registry).
type Observer interface {
	// ObserveThread returns the slot for a newly created thread of the
	// named method.
	ObserveThread(method string) *Slot
}

// Slot is where one thread publishes: a copy of its Stats as of the end of
// its latest atomic block, and the latency histograms of its sampled
// blocks (one in sampleEvery, see Recorder.Begin). The owning thread
// writes it under mu once per block; Read takes the same mutex, which no
// one else contends, so a reader never waits on a block in flight.
type Slot struct {
	mu      sync.Mutex
	stats   Stats
	latency [NumPaths]Latency

	paths ThreadObserver // called by the owning thread; nil for none
}

// NewSlot returns an empty slot whose thread reports its path transitions
// to paths (nil for none).
func NewSlot(paths ThreadObserver) *Slot { return &Slot{paths: paths} }

// Read returns the slot's latest copy of its thread's Stats and latency
// histograms, indexed by Path.
func (s *Slot) Read() (Stats, [NumPaths]Latency) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats, s.latency
}

// publish copies st — whose latest block retired on path p and, when
// sampled, took latency nanos (negative: not sampled) — into the slot.
func (s *Slot) publish(st *Stats, p Path, nanos int64) {
	s.mu.Lock()
	s.stats = *st
	if nanos >= 0 {
		s.latency[p].Observe(nanos)
	}
	s.mu.Unlock()
}

// NumLatencyBuckets is the number of log2-spaced histogram buckets. Bucket i
// counts latencies in [2^i, 2^(i+1)) nanoseconds (bucket 0 also absorbs 0),
// so 64 buckets cover every int64 nanosecond value.
const NumLatencyBuckets = 64

// LatencyBucket maps a latency to its histogram bucket: floor(log2(n)),
// clamped.
func LatencyBucket(nanos int64) int {
	if nanos <= 0 {
		return 0
	}
	return min(bits.Len64(uint64(nanos))-1, NumLatencyBuckets-1)
}

// Latency is a plain log2 latency histogram, written by one goroutine at a
// time.
type Latency struct {
	// Counts[i] holds observations that fell in [2^i, 2^(i+1))
	// nanoseconds.
	Counts [NumLatencyBuckets]uint64 `json:"counts"`
	// Count and SumNanos give the total observations and nanoseconds.
	Count    uint64 `json:"count"`
	SumNanos int64  `json:"sum_nanos"`
}

// Observe records one latency sample.
func (l *Latency) Observe(nanos int64) {
	l.Counts[LatencyBucket(nanos)]++
	l.Count++
	l.SumNanos += nanos
}

// MeanNanos returns the mean latency, or 0 with no observations.
func (l *Latency) MeanNanos() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SumNanos) / float64(l.Count)
}

// LockFaultHook is the pessimistic-path half of fault injection: every
// method's lock path invokes OnLockAcquired immediately after acquiring
// the fallback lock (or, for the NOrec family, the sequence/fallback lock
// of a pessimistic commit), before touching shared data. internal/fault's
// Director implements it to inject lock-holder latency spikes — the
// adversarial regime the refined-TLE slow paths exist for. Implementations
// must be safe for concurrent use (one hook instance serves all threads).
type LockFaultHook interface {
	OnLockAcquired()
}
