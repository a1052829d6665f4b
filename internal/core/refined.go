package core

import (
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// elision is what every lock-based Method is bound to: a heap, the lock it
// elides there, and the speculation policy.
type elision struct {
	m      *mem.Memory
	lock   *spinlock.Lock
	policy Policy
}

// Lock exposes the underlying lock, so tests can hold it to stage the paths
// that only run beside a holder.
func (b *elision) Lock() *spinlock.Lock { return b.lock }

// exec builds one thread's execution state.
func (b *elision) exec(name string) Exec { return NewExec(b.m, b.lock, b.policy, name) }

// refinedThread is the control flow of Figure 1, written once for every
// elision method in this package:
//
//   - lock free, attempts remaining → fast path: uninstrumented HTM with
//     eager lock subscription;
//   - lock held → slow path: instrumented HTM attempt, concurrent with the
//     lock holder; slow-path failures do not count against the fast-path
//     attempt budget (§6.2.1);
//   - attempt budget exhausted → acquire the lock and run the pessimistic
//     path.
//
// The refinements plug in through the two hooks; leaving both nil is plain
// TLE, and HLE is that with a budget of one and no look at the lock first.
type refinedThread struct {
	Exec

	// slowAttempt runs one instrumented HTM attempt of body on Tx and
	// returns htm.None on commit. Nil means the method has no slow path:
	// while the lock is held the thread waits for it to be free.
	slowAttempt func(body func(Context)) htm.AbortReason
	// underLock runs body on the instrumented pessimistic path; the loop
	// holds the lock around the call. Nil means the unmodified body.
	underLock func(body func(Context))
	// eager skips the look at the lock before an attempt (HLE: the hardware
	// begins the elided acquisition without asking).
	eager bool
}

func (r *refinedThread) Atomic(body func(Context)) {
	t0 := r.Rec.Begin()
	attempts := 0
	budget := r.Attempts.Budget()
	backoff := 1
	for {
		if !r.eager && r.lock.Held() {
			if r.slowAttempt != nil {
				r.Rec.SlowAttempt()
				reason := r.slowAttempt(body)
				if reason == htm.None {
					r.Rec.SlowCommit(t0)
					return
				}
				r.Rec.SlowAbort(reason, r.Tx.LastAbortInjected())
				// A slow-path abort usually means a conflict with the
				// lock holder that persists until its critical section
				// retires; back off politely instead of spinning hot.
				spinlock.Backoff(&backoff, 256)
				continue
			}
			// "Is lock available?" — do not even start a transaction that
			// is doomed to fail its subscription [16]. Every speculating
			// thread waits here: the limitation the refinements remove.
			r.lock.WaitUntilFree()
		}
		backoff = 1
		if attempts >= budget {
			r.runUnderLock(body)
			r.Rec.LockCommit(t0)
			r.Attempts.Record(attempts, false)
			return
		}
		r.Rec.FastAttempt()
		reason := r.Tx.Run(func(tx *htm.Tx) {
			r.Subscribe(tx)
			body(FastContext(tx))
		})
		if reason == htm.None {
			r.Rec.FastCommit(t0)
			r.Attempts.Record(attempts, true)
			return
		}
		r.FastAborted(reason)
		attempts++
	}
}

// runUnderLock is the pessimistic path: the method's instrumented lock-path
// body, or the unmodified critical section when it has none.
func (r *refinedThread) runUnderLock(body func(Context)) {
	start := r.AcquireLock()
	if r.underLock != nil {
		r.underLock(body)
	} else {
		body(r.LockCtx())
	}
	r.ReleaseLock(start)
}
