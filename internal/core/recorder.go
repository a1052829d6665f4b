package core

import (
	"time"

	"rtle/internal/htm"
)

// Recorder couples a thread's quiescent Stats with the optional live
// observer shard, so the two cannot drift: every accounting event flows
// through exactly one Recorder method, which updates the plain counters and
// forwards the event to the ThreadObserver when one is attached. With no
// observer each method reduces to the bare field increments the threads
// performed before observability existed, plus one nil check.
//
// It is exported because the STM and hybrid methods outside this package
// (internal/norec, internal/rhnorec) account through it too.
type Recorder struct {
	stats     Stats
	obs       ThreadObserver // nil when Policy.Observer is unset
	lockFault LockFaultHook  // nil when Policy.LockFault is unset
}

// NewRecorder builds the recorder for one thread of the named method.
func NewRecorder(p Policy, method string) Recorder {
	var r Recorder
	if p.Observer != nil {
		r.obs = p.Observer.ObserveThread(method)
	}
	r.lockFault = p.LockFault
	return r
}

// LockAcquired reports that the thread just acquired the fallback lock
// (before running the critical section), firing the configured fault hook —
// the injection point for lock-holder latency spikes.
func (r *Recorder) LockAcquired() {
	if r.lockFault != nil {
		r.lockFault.OnLockAcquired()
	}
}

// Stats exposes the quiescent counters (Thread.Stats).
func (r *Recorder) Stats() *Stats { return &r.stats }

// Begin returns the atomic block's start time for latency accounting, or 0
// when observation is disabled (the clock is then never read).
func (r *Recorder) Begin() int64 {
	if r.obs == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// FastAttempt records a fast-path hardware attempt beginning.
func (r *Recorder) FastAttempt() {
	r.stats.FastAttempts++
	if r.obs != nil {
		r.obs.Attempt(PathFast)
	}
}

// SlowAttempt records a slow-path hardware attempt beginning.
func (r *Recorder) SlowAttempt() {
	r.stats.SlowAttempts++
	if r.obs != nil {
		r.obs.Attempt(PathSlow)
	}
}

// STMStart records a software-transaction attempt beginning.
func (r *Recorder) STMStart() {
	r.stats.STMStarts++
	if r.obs != nil {
		r.obs.Attempt(PathSTM)
	}
}

// FastAbort records a failed fast-path attempt; subscription marks aborts
// caused by observing the lock held after transaction begin, injected ones
// forced by a fault injector (htm.Tx.LastAbortInjected).
func (r *Recorder) FastAbort(reason htm.AbortReason, subscription, injected bool) {
	r.stats.FastAborts[reason]++
	if subscription {
		r.stats.SubscriptionAborts++
	}
	if injected {
		r.stats.InjectedAborts[reason]++
	}
	if r.obs != nil {
		r.obs.Abort(PathFast, reason, subscription, injected)
	}
}

// SlowAbort records a failed slow-path attempt.
func (r *Recorder) SlowAbort(reason htm.AbortReason, injected bool) {
	r.stats.SlowAborts[reason]++
	if injected {
		r.stats.InjectedAborts[reason]++
	}
	if r.obs != nil {
		r.obs.Abort(PathSlow, reason, false, injected)
	}
}

// STMAbort records a software-transaction validation failure.
func (r *Recorder) STMAbort() {
	r.stats.STMAborts++
	if r.obs != nil {
		r.obs.STMAbort()
	}
}

// Validation records one value-based read-set validation.
func (r *Recorder) Validation() {
	r.stats.Validations++
	if r.obs != nil {
		r.obs.Validation()
	}
}

// LockHold adds nanos of lock-hold time.
func (r *Recorder) LockHold(nanos int64) {
	r.stats.LockHoldNanos += nanos
	if r.obs != nil {
		r.obs.LockHold(nanos)
	}
}

// Resize records an adaptive FG-TLE orec-array resize.
func (r *Recorder) Resize() {
	r.stats.Resizes++
	if r.obs != nil {
		r.obs.Resize()
	}
}

// ModeSwitch records a mode change (Stats.ModeSwitches).
func (r *Recorder) ModeSwitch() {
	r.stats.ModeSwitches++
	if r.obs != nil {
		r.obs.ModeSwitch()
	}
}

// addCommit bumps the Stats counter matching a commit bucket.
func (s *Stats) addCommit(k CommitKind) {
	switch k {
	case CommitFast:
		s.FastCommits++
	case CommitSlow:
		s.SlowCommits++
	case CommitLock:
		s.LockRuns++
	case CommitSTMHTM:
		s.STMCommitsHTM++
	case CommitSTMLock:
		s.STMCommitsLock++
	case CommitSTMRO:
		s.STMCommitsRO++
	}
}

// commit retires one atomic block in bucket k. t0 is the Begin() value.
func (r *Recorder) commit(k CommitKind, t0 int64) {
	r.stats.Ops++
	r.stats.addCommit(k)
	if r.obs != nil {
		r.obs.Op(k, time.Now().UnixNano()-t0)
	}
}

// FastCommit retires an atomic block that committed on the fast path.
func (r *Recorder) FastCommit(t0 int64) { r.commit(CommitFast, t0) }

// SlowCommit retires an atomic block that committed on the slow path.
func (r *Recorder) SlowCommit(t0 int64) { r.commit(CommitSlow, t0) }

// LockCommit retires an atomic block that ran under the lock.
func (r *Recorder) LockCommit(t0 int64) { r.commit(CommitLock, t0) }

// STMDone retires one atomic block that completed as a software
// transaction: k names its commit bucket and stmNanos the time spent in
// software attempts (Stats.STMTimeNanos).
func (r *Recorder) STMDone(k CommitKind, t0 int64, stmNanos int64) {
	r.stats.STMTimeNanos += stmNanos
	if r.obs != nil {
		r.obs.STMTime(stmNanos)
	}
	r.commit(k, t0)
}

// ExtraCommit bumps a commit bucket without retiring an atomic block (see
// ThreadObserver.ExtraCommit; only ALE's dual-booked software sections).
func (r *Recorder) ExtraCommit(k CommitKind) {
	r.stats.addCommit(k)
	if r.obs != nil {
		r.obs.ExtraCommit(k)
	}
}
