package core

import (
	"time"

	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// Exec is the per-thread execution state every elision loop in this
// repository runs on — the methods' threads here and the guards of
// internal/guard: one hardware transaction, a pacer, an attempt policy and a
// recorder, bound to the lock being elided. Its methods are the steps of
// Figure 1 that no refinement changes: subscribing the lock word on the fast
// path, the uninstrumented lock-path Context (the fast path's is FastContext),
// and the bracket around a lock-held section. An Exec serves one goroutine at
// a time.
type Exec struct {
	// Threads are allocated back to back and every section writes the
	// counters below, so whatever shares a cache line with them is
	// false-shared with the neighbouring thread: the tail of the struct that
	// embeds the previous Exec (FG-TLE's uniq counts, a guard's pend counts —
	// written per access or per section). The allocator's size classes are
	// not multiples of the line, so only a line of padding in front keeps
	// the two apart whatever the embedding struct grows to.
	_ [64]byte

	Tx       *htm.Tx
	Attempts AttemptPolicy
	Rec      Recorder

	m     *mem.Memory
	lock  *spinlock.Lock
	pacer Pacer
	lazy  bool // Policy.LazySubscription

	lockBusy bool // the fast attempt in flight saw the lock held when it subscribed
}

// NewExec builds the state for one thread of the named method (the name
// labels its observer shard) eliding lock over m under policy p.
func NewExec(m *mem.Memory, lock *spinlock.Lock, p Policy, name string) Exec {
	return Exec{
		Tx:       htm.NewTx(m, p.HTM),
		Attempts: attemptPolicyFor(p),
		Rec:      NewRecorder(p, name),
		m:        m,
		lock:     lock,
		pacer:    Pacer{Every: p.HTM.InterleaveEvery},
		lazy:     p.LazySubscription,
	}
}

// Stats implements Thread for every thread type that embeds an Exec.
func (e *Exec) Stats() *Stats { return e.Rec.Stats() }

// Subscribe reads the lock word inside the transaction, adding it to the
// read set so that a later acquisition aborts this transaction; if the lock
// is already held the attempt self-aborts immediately.
//
//rtle:speculative
func (e *Exec) Subscribe(tx *htm.Tx) {
	if tx.Read(e.lock.Addr()) != 0 {
		e.lockBusy = true
		tx.Abort()
	}
}

// lazySubscribe implements the §5 option: subscribe to the lock at the end
// of a slow-path transaction, so the transaction cannot commit while the
// lock is held. Slow-path attempts call it after the body.
//
//rtle:speculative
func (e *Exec) lazySubscribe(tx *htm.Tx) {
	if e.lazy && tx.Read(e.lock.Addr()) != 0 {
		tx.Abort()
	}
}

// FastAborted records a failed fast-path attempt, charging it to the
// subscription when Subscribe saw the lock held.
func (e *Exec) FastAborted(reason htm.AbortReason) {
	e.Rec.FastAbort(reason, e.lockBusy, e.Tx.LastAbortInjected())
	e.lockBusy = false
}

// LockCtx returns the uninstrumented pessimistic-path Context a lock-holding
// section runs against, paced when concurrency virtualization is on.
func (e *Exec) LockCtx() Context { return lockPathCtx(e.m, &e.pacer) }

// AcquireLock takes the lock and opens the hold (see BeginHold).
func (e *Exec) AcquireLock() time.Time {
	e.lock.Acquire()
	return e.BeginHold()
}

// BeginHold marks the moment the thread became the lock holder: it fires the
// lock-fault hook — the injection point for holder latency spikes, so it
// runs before the section touches shared data — and returns the hold's start
// time for ReleaseLock. Callers whose acquisition is more than lock.Acquire
// (a guard writer also waits out its readers) call it themselves.
func (e *Exec) BeginHold() time.Time {
	e.Rec.LockAcquired()
	return epoch.Add(time.Since(epoch))
}

// epoch anchors the monotonic clock reads of this package: the start times
// BeginHold hands out, whose only consumer is ReleaseLock's time.Since, and
// the sampled block latencies of Recorder. time.Since reads the monotonic
// clock alone, so both skip time.Now's wall-clock read.
var epoch = time.Now()

// sinceEpoch returns the nanoseconds elapsed since epoch.
func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// ReleaseLock accounts the hold that began at start and releases the lock.
func (e *Exec) ReleaseLock(start time.Time) {
	e.Rec.LockHold(time.Since(start).Nanoseconds())
	e.lock.Release()
}
