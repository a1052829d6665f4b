package core

import "rtle/internal/htm"

// This file defines the live-observability hook points. A Method's threads
// keep their quiescent per-thread Stats exactly as before; when
// Policy.Observer is set, every accounting event is additionally forwarded
// to a per-thread ThreadObserver, which can publish it through atomic
// counters so an aggregator (internal/obs) can read a coherent view at any
// time — without stopping the workers. With Policy.Observer nil the hooks
// cost one nil check per event.

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

// ThreadObserver receives the live execution events of one Thread. Each
// instance is driven by exactly one goroutine (the thread's), but its state
// may be read concurrently by aggregators, so implementations must publish
// through atomics or equivalent.
//
// Event ordering contract (what makes concurrent snapshots coherent): a
// thread emits Attempt before the matching Op or Abort, and exactly one Op
// per completed atomic block. An implementation that increments its Ops
// counter before its per-kind commit counter, and whose reader loads the
// commit counters before the Ops counter, therefore always observes
// TotalCommits <= Ops and Attempts >= Commits+Aborts per path.
type ThreadObserver interface {
	// Op records one completed atomic block: the bucket it committed in
	// and the wall-clock latency of the whole Atomic call (including all
	// aborted speculative attempts).
	Op(k CommitKind, latencyNanos int64)
	// ExtraCommit records a commit-bucket increment that does not retire
	// an additional atomic block. Only ALE uses it: its software sections
	// count both a lock run (the Op) and an STM commit bucket, mirroring
	// how its Stats double-book those paths.
	ExtraCommit(k CommitKind)
	// Attempt records a transaction attempt beginning on p: PathFast and
	// PathSlow for hardware attempts, PathSTM for software-transaction
	// starts (Stats.STMStarts).
	Attempt(p Path)
	// Abort records a failed hardware attempt on p (PathFast or
	// PathSlow). subscription is true when a fast-path attempt aborted
	// because the lock was observed held after transaction begin;
	// injected is true when the abort was forced by a fault injector
	// (htm.Injector) rather than arising organically.
	Abort(p Path, reason htm.AbortReason, subscription, injected bool)
	// STMAbort records a software-transaction validation failure.
	STMAbort()
	// Validation records one value-based read-set validation (Fig. 10).
	Validation()
	// LockHold adds nanos of lock-hold time (Fig. 7).
	LockHold(nanos int64)
	// STMTime adds nanos spent inside software transactions (Fig. 8).
	STMTime(nanos int64)
	// Resize records an adaptive FG-TLE orec-array resize.
	Resize()
	// ModeSwitch records a mode change (Stats.ModeSwitches).
	ModeSwitch()
}

// Observer hands out per-thread observers. Implementations must be safe
// for concurrent ObserveThread calls (threads can be created while others
// run). internal/obs provides the standard implementation (Registry).
type Observer interface {
	// ObserveThread returns the observer for a newly created thread of
	// the named method.
	ObserveThread(method string) ThreadObserver
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
