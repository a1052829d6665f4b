package guard

import (
	"runtime"
	"time"

	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// section names a guard's three elidable entry points. They are one loop
// (do); what differs between them is selected inside it by direct calls, so
// a body passed to Do or RDo never escapes to the heap.
type section uint8

const (
	// exclusive is Mutex.Do: plain TLE.
	exclusive section = iota
	// writer is RWMutex.Do: TLE that also subscribes the reader count, so a
	// bracket reader entering aborts it, and whose fallback waits out the
	// readers and raises the write flag on its first write.
	writer
	// reader is RWMutex.RDo: RW-TLE. Beside a lock-holding writer it runs
	// the read-only slow path instead of waiting, and its fallback is a
	// shared (bracket-reader) acquisition.
	reader
)

// do runs body as one atomic section of the given kind: Figure 1's loop
// with the guard's retreat gate in front. While the guard retreats the
// section goes straight to the lock and reports nothing to the attempt
// policy or the retreat window — it made no attempt to learn from.
//
// A reader charges its slow-path aborts to the attempt budget, which
// core's loop (§6.2.1) does not: a reader that gives up falls back to a
// shared acquisition, which excludes no other reader, so giving up early
// is cheap where retrying beside a writer that has already written is not.
//
// The commit is the section's last accounting, after the retreat window's
// (which may record a mode switch), so the copy an observer publishes at
// the commit is the thread's state at a block boundary.
func (g *base) do(kind section, body func(core.Context)) {
	t := g.get()
	defer g.put(t)
	t0 := t.Rec.Begin()
	budget := 0
	if g.retreat.speculate(t) {
		budget = t.Attempts.Budget()
	}
	backoff := 1
	for attempts := 0; attempts < budget; attempts++ {
		if g.lock.Held() {
			if kind == reader {
				t.Rec.SlowAttempt()
				reason := g.flag.SlowAttempt(&t.Exec, body)
				if reason == htm.None {
					t.Attempts.Record(attempts, true)
					g.retreat.record(t, attempts, attempts+1)
					t.Rec.SlowCommit(t0)
					return
				}
				t.Rec.SlowAbort(reason, t.Tx.LastAbortInjected())
				// A slow-path abort usually means a conflict with the lock
				// holder that persists until its section retires.
				spinlock.Backoff(&backoff, 256)
				continue
			}
			// Anti-lemming [16]: do not start a transaction doomed to fail
			// its subscription.
			g.lock.WaitUntilFree()
		}
		backoff = 1
		t.Rec.FastAttempt()
		reason := t.Tx.Run(func(tx *htm.Tx) {
			t.Subscribe(tx)
			if kind == writer && tx.Read(g.readersAddr) != 0 {
				tx.Abort()
			}
			body(core.FastContext(tx))
		})
		if reason == htm.None {
			t.Attempts.Record(attempts, true)
			g.retreat.record(t, attempts, attempts+1)
			t.Rec.FastCommit(t0)
			return
		}
		t.FastAborted(reason)
	}
	if kind == reader {
		g.acquireReader()
		t.Rec.LockAcquired()
		body(readOnly{t.LockCtx()})
		g.releaseReader()
	} else {
		start := g.acquire(kind, t)
		body(g.lockCtx(kind, t))
		g.release(t, start)
	}
	if budget > 0 {
		t.Attempts.Record(budget, false)
		g.retreat.record(t, budget, budget)
	}
	t.Rec.LockCommit(t0)
}

// acquire makes t the pessimistic holder of an exclusive or writer section
// and opens its hold. A writer also waits until the bracket-reader count
// drains: new readers cannot enter once the lock word is held (acquireReader
// re-checks it after incrementing), so the wait is bounded by the sections
// already in flight.
func (g *base) acquire(kind section, t *gthread) time.Time {
	g.lock.Acquire()
	if kind == writer {
		for spins := 0; g.m.Load(g.readersAddr) != 0; spins++ {
			if spins%8 == 7 {
				runtime.Gosched()
			}
		}
	}
	return t.BeginHold()
}

// lockCtx is the Context of a section that holds the lock: uninstrumented
// for a Mutex, the RW-TLE lock path whose first write raises the flag for an
// RWMutex writer.
func (g *base) lockCtx(kind section, t *gthread) core.Context {
	if kind == writer {
		return g.flag.LockCtx(&t.Exec)
	}
	return t.LockCtx()
}

// release ends the hold that began at start, lowering the write flag if the
// section raised it (only a writer's Context can).
func (g *base) release(t *gthread, start time.Time) {
	g.flag.Lower()
	t.ReleaseLock(start)
}

// enter is the bracket form's Lock: a bracket section cannot elide — Go
// cannot re-execute the code between Lock and Unlock after an abort — so it
// always takes the lock, which in turn aborts every speculating section via
// their subscriptions.
func (g *base) enter(kind section) {
	t := g.get()
	g.holdStart = g.acquire(kind, t)
	g.holder = t
	g.holdT0 = t.Rec.Begin()
}

// exit is the bracket form's Unlock.
func (g *base) exit() {
	t, t0 := g.holder, g.holdT0
	if t == nil {
		panic("guard: Unlock of an unlocked guard")
	}
	g.holder = nil
	g.release(t, g.holdStart)
	t.Rec.LockCommit(t0)
	g.put(t)
}

// holderCtx is the bracket form's Ctx.
func (g *base) holderCtx(kind section) core.Context {
	t := g.holder
	if t == nil {
		panic("guard: Ctx outside Lock/Unlock")
	}
	return g.lockCtx(kind, t)
}

// readOnly is the pessimistic read-only path: plain loads under a
// bracket-reader acquisition. Writes are an API misuse and panic rather than
// silently corrupting reader-concurrent state.
type readOnly struct{ core.Context }

func (readOnly) Write(mem.Addr, uint64) {
	panic("guard: Write inside a read-only RWMutex section")
}
