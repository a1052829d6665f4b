// Package rhnorec implements the Reduced Hardware NOrec hybrid TM of
// Matveev and Shavit (TRANSACT 2014), the hybrid comparison point of the
// paper's evaluation (§6.2.2). It follows the variant the paper compares
// against ([18], not the later ASPLOS'15 redesign):
//
//   - Transactions first attempt to run entirely in HTM. If no software
//     transaction is running they commit without touching shared metadata
//     (HTMFast); otherwise they must increment the global timestamp at
//     commit so software readers revalidate (HTMSlow) — the increment that
//     §6.2.2 identifies as the scalability bottleneck.
//   - After the fast-path budget is exhausted the transaction switches to a
//     NOrec-style software path with value-based validation. Its commit is
//     attempted as a small ("reduced") hardware transaction that bumps the
//     timestamp and publishes the write set (STMFastCommit); if that keeps
//     failing, a global fallback lock halts all speculation and the commit
//     happens pessimistically (STMSlowCommit).
//
// The software path is not a copy of NOrec's: a thread embeds norec.Tx (read
// barrier, value-based validation, retry loop and accounting) and supplies
// only that commit.
package rhnorec

import (
	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/norec"
	"rtle/internal/spinlock"
)

// Method implements core.Method with the RHNOrec hybrid TM.
type Method struct {
	m        *mem.Memory
	policy   core.Policy
	attempts int      // policy's attempt budget, for both hardware loops
	seqAddr  mem.Addr // global timestamp / sequence lock (even = quiescent)
	swAddr   mem.Addr // count of running software transactions
	fallback *spinlock.Lock
}

// New returns an RHNOrec method over m. policy.Attempts bounds both the
// all-hardware path and the reduced commit transaction (the paper uses 5
// for each, §6.2.2).
func New(m *mem.Memory, policy core.Policy) *Method {
	line := m.AllocLines(1)
	return &Method{
		m:        m,
		policy:   policy,
		attempts: policy.AttemptBudget(),
		seqAddr:  line,
		swAddr:   line + 1,
		fallback: spinlock.New(m),
	}
}

// Name implements core.Method.
func (r *Method) Name() string { return "RHNOrec" }

// NewThread implements core.Method.
func (r *Method) NewThread() core.Thread {
	return &thread{
		Tx:     norec.NewTx(r.m, r.seqAddr, r.policy, r.Name()),
		method: r,
		tx:     htm.NewTx(r.m, r.policy.HTM),
	}
}

// subscribe puts the fallback lock in a hardware transaction's read set: a
// pessimistic commit halts all hardware speculation.
//
//rtle:speculative
func (r *Method) subscribe(tx *htm.Tx) {
	if tx.Read(r.fallback.Addr()) != 0 {
		tx.Abort()
	}
}

// thread is NOrec's software transaction (the embedded Tx: read barrier,
// value-based validation, retry loop) behind an all-hardware path, with the
// reduced-hardware commit in place of NOrec's.
type thread struct {
	norec.Tx
	method *Method
	tx     *htm.Tx

	bumped bool // current HTM fast attempt had to bump the timestamp
}

// Atomic implements core.Thread.
func (t *thread) Atomic(body func(core.Context)) {
	t0 := t.Rec.Begin()
	r := t.method
	for i := 0; i < r.attempts; i++ {
		t.bumped = false
		reason := t.tx.Run(func(tx *htm.Tx) {
			r.subscribe(tx)
			swRunning := tx.Read(r.swAddr) != 0
			// The all-hardware path is uninstrumented, as RHNOrec
			// advertises.
			body(core.FastContext(tx))
			if swRunning {
				// Software transactions are running: bump the
				// timestamp so they revalidate against our
				// writes. This is the contended increment of
				// Figs. 8–10. Even read-only transactions pay
				// it: without instrumentation the fast path
				// cannot know it performed no writes (§6.3).
				s := tx.Read(r.seqAddr)
				if s&1 != 0 {
					tx.Abort()
				}
				tx.Write(r.seqAddr, s+2)
				t.bumped = true
			}
		})
		// Which path a hardware attempt ran on is known only once it ends
		// (whether it had to bump the timestamp), so the attempt is booked
		// here, right before its outcome: per path, commits + aborts never
		// exceed attempts, also in a concurrent snapshot.
		if reason == htm.None && t.bumped {
			t.Rec.SlowAttempt()
			t.Rec.SlowCommit(t0) // HTMSlow in Fig. 9
			return
		}
		t.Rec.FastAttempt()
		if reason == htm.None {
			t.Rec.FastCommit(t0) // HTMFast in Fig. 9
			return
		}
		t.Rec.FastAbort(reason, false, t.tx.LastAbortInjected())
	}
	// The software path: NOrec's transaction, announced in swAddr so the
	// hardware path bumps the timestamp while it runs.
	r.m.FetchAdd(r.swAddr, 1)
	t.Run(body, t0, t.commit)
	r.m.FetchAdd(r.swAddr, ^uint64(0)) // decrement
}

// commit publishes the software transaction: first with the reduced
// hardware transaction, then under the fallback lock.
func (t *thread) commit() core.CommitKind {
	r := t.method
	for i := 0; i < r.attempts; i++ {
		seqChanged := false
		reason := t.tx.Run(func(tx *htm.Tx) {
			r.subscribe(tx)
			s := tx.Read(r.seqAddr)
			if s != t.Snapshot {
				// The timestamp moved since our last
				// validation: revalidate outside and retry.
				seqChanged = true
				tx.Abort()
			}
			t.Log.PublishTx(tx)
			tx.Write(r.seqAddr, s+2)
		})
		if reason == htm.None {
			return core.CommitSTMHTM
		}
		if seqChanged {
			t.Validate() // aborts on value mismatch
		}
	}
	// Pessimistic commit: halt all speculation with the fallback lock.
	r.fallback.Acquire()
	t.Rec.LockAcquired()
	for !r.m.CAS(r.seqAddr, t.Snapshot, t.Snapshot+1) {
		if !t.Revalidate() {
			// The lock must be released before the attempt unwinds.
			r.fallback.Release()
			t.Abort()
		}
	}
	t.Log.Publish(r.m)
	r.m.Store(r.seqAddr, t.Snapshot+2)
	r.fallback.Release()
	return core.CommitSTMLock
}
