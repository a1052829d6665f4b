package core

import "rtle/internal/htm"

// Recorder is a thread's accounting: every event flows through exactly one
// Recorder method, which updates the thread's plain Stats. When the policy
// names an Observer, the method that retires an atomic block also publishes
// the Stats into the thread's Slot, with the block's latency when the block
// was sampled; with no observer it costs one nil check per block.
//
// It is exported because the STM and hybrid methods outside this package
// (internal/norec, internal/rhnorec) account through it too.
type Recorder struct {
	stats     Stats
	slot      *Slot         // nil when Policy.Observer is unset
	lockFault LockFaultHook // nil when Policy.LockFault is unset
	last      Path          // path of the latest block, when observed
}

// sampleEvery is the latency sampling period: a thread times its 1st,
// (sampleEvery+1)th, ... atomic block, so a thread with n blocks
// contributes ceil(n/sampleEvery) latency observations.
const sampleEvery = 16

// NewRecorder builds the recorder for one thread of the named method.
func NewRecorder(p Policy, method string) Recorder {
	var r Recorder
	if p.Observer != nil {
		r.slot = p.Observer.ObserveThread(method)
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

// Begin returns the atomic block's start on the monotonic epoch (see
// sinceEpoch), plus one so that it is never 0, when the block is sampled
// for latency; 0 when it is not or observation is disabled (the clock is
// then not read).
func (r *Recorder) Begin() int64 {
	if r.slot == nil || r.stats.Ops%sampleEvery != 0 {
		return 0
	}
	return sinceEpoch() + 1
}

// FastAttempt records a fast-path hardware attempt beginning.
func (r *Recorder) FastAttempt() { r.stats.FastAttempts++ }

// SlowAttempt records a slow-path hardware attempt beginning.
func (r *Recorder) SlowAttempt() { r.stats.SlowAttempts++ }

// STMStart records a software-transaction attempt beginning.
func (r *Recorder) STMStart() { r.stats.STMStarts++ }

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
}

// SlowAbort records a failed slow-path attempt.
func (r *Recorder) SlowAbort(reason htm.AbortReason, injected bool) {
	r.stats.SlowAborts[reason]++
	if injected {
		r.stats.InjectedAborts[reason]++
	}
}

// STMAbort records a software-transaction validation failure.
func (r *Recorder) STMAbort() { r.stats.STMAborts++ }

// Validation records one value-based read-set validation.
func (r *Recorder) Validation() { r.stats.Validations++ }

// LockHold adds nanos of lock-hold time.
func (r *Recorder) LockHold(nanos int64) { r.stats.LockHoldNanos += nanos }

// Resize records an adaptive FG-TLE orec-array resize.
func (r *Recorder) Resize() { r.stats.Resizes++ }

// ModeSwitch records a mode change (Stats.ModeSwitches).
func (r *Recorder) ModeSwitch() { r.stats.ModeSwitches++ }

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

// commit retires one atomic block in bucket k, t0 being its Begin value.
// When the thread is observed it publishes the thread's Stats — this is the
// last accounting a block does, so every published copy is the thread's
// state at a block boundary — and then reports a change of path.
func (r *Recorder) commit(k CommitKind, t0 int64) {
	r.stats.Ops++
	r.stats.addCommit(k)
	s := r.slot
	if s == nil {
		return
	}
	nanos := int64(-1)
	if t0 != 0 {
		nanos = sinceEpoch() + 1 - t0
	}
	p := k.Path()
	s.publish(&r.stats, p, nanos)
	if s.paths != nil && r.stats.Ops > 1 && p != r.last {
		s.paths.PathChanged(r.last, p, k)
	}
	r.last = p
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
	r.commit(k, t0)
}

// ExtraCommit bumps a commit bucket without retiring an atomic block: only
// ALE's software sections, which its Stats book both as a lock run and in
// an STM commit bucket.
func (r *Recorder) ExtraCommit(k CommitKind) { r.stats.addCommit(k) }
