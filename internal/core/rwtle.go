package core

import (
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// RWTLEMethod implements RW-TLE (§3): the lock is augmented with a boolean
// write flag. While a thread holds the lock, other threads may complete
// read-only critical sections in hardware transactions on the slow path,
// as long as the lock holder has not yet executed its first write. The
// protocol itself is WriteFlag; this type places the flag beside the lock
// and plugs the protocol into the shared loop.
//
// The flag deliberately shares a cache line with the lock word, so that the
// lock-release store also aborts slow-path subscribers: this is the eager
// switch back to the fast path that §6.3 contrasts with FG-TLE's behaviour.
type RWTLEMethod struct {
	elision
	flag WriteFlag
}

// NewRWTLE returns an RW-TLE method over m with a fresh lock+flag line.
func NewRWTLE(m *mem.Memory, policy Policy) *RWTLEMethod {
	line := m.AllocLines(1)
	return &RWTLEMethod{elision{m, spinlock.NewAt(m, line), policy}, NewWriteFlag(m, line+1)}
}

// Name implements Method.
func (r *RWTLEMethod) Name() string { return "RW-TLE" }

// NewThread implements Method.
func (r *RWTLEMethod) NewThread() Thread {
	t := &refinedThread{Exec: r.exec(r.Name())}
	flag := r.flag // the thread's own view: only a holder uses the raised bit
	t.slowAttempt = func(body func(Context)) htm.AbortReason {
		return flag.SlowAttempt(&t.Exec, body)
	}
	t.underLock = func(body func(Context)) {
		body(flag.LockCtx(&t.Exec))
		flag.Lower()
	}
	return t
}

// WriteFlag is §3's protocol around one flag word, held by every layer that
// runs RW-TLE (RWTLEMethod's threads, guard.RWMutex):
//
//   - A slow-path transaction subscribes to the flag at begin (aborting if
//     it is already set), so a later raise aborts it.
//   - A slow-path transaction's own write barrier self-aborts — only
//     read-only transactions may commit on the slow path (Figure 2).
//   - The lock holder's write barrier raises the flag on its first write,
//     and the holder lowers it before it releases the lock.
//
// The lock-path half (LockCtx, Lower) must only run while the lock is held;
// the lock orders the raised bit between successive holders.
type WriteFlag struct {
	m      *mem.Memory
	addr   mem.Addr
	raised bool // write flag raised during the current lock-held section
}

// NewWriteFlag wraps the (zero) word at addr as a write flag.
func NewWriteFlag(m *mem.Memory, addr mem.Addr) WriteFlag { return WriteFlag{m: m, addr: addr} }

// Addr returns the flag word's address (tests probe it).
func (f *WriteFlag) Addr() mem.Addr { return f.addr }

// SlowAttempt is one instrumented slow-path attempt of body on e's
// transaction: subscribe to the write flag, run the body with the aborting
// write barrier, optionally subscribe to the lock lazily (§5).
func (f *WriteFlag) SlowAttempt(e *Exec, body func(Context)) htm.AbortReason {
	return e.Tx.Run(func(tx *htm.Tx) {
		if tx.Read(f.addr) != 0 {
			tx.Abort()
		}
		body(rwSlowCtx{tx})
		e.lazySubscribe(tx)
	})
}

// LockCtx returns the instrumented pessimistic-path Context for a section
// of e that holds the lock: its first write raises the flag.
func (f *WriteFlag) LockCtx(e *Exec) Context { return rwLockCtx{f, &e.pacer} }

// Lower clears the flag if the section raised it (once per critical section
// — Figure 2's note that only the first write needs the barrier — so a
// read-only holder never stores to the line its subscribers watch). The
// holder calls it after the body, before releasing the lock.
func (f *WriteFlag) Lower() {
	if f.raised {
		f.m.Store(f.addr, 0)
		f.raised = false
	}
}

// rwSlowCtx is the instrumented slow path: reads are plain transactional
// loads; any write self-aborts (Figure 2, line 2).
type rwSlowCtx struct {
	tx *htm.Tx
}

func (c rwSlowCtx) Read(a mem.Addr) uint64 { return c.tx.Read(a) }

func (c rwSlowCtx) Write(a mem.Addr, v uint64) { c.tx.Abort() }
func (c rwSlowCtx) InHTM() bool                { return true }
func (c rwSlowCtx) Unsupported()               { c.tx.Unsupported() }

// rwLockCtx is the instrumented pessimistic path: the first write raises
// the write flag before touching data (Figure 2, lines 3–4; under TSO the
// flag store becomes visible no later than the data store).
type rwLockCtx struct {
	f *WriteFlag
	p *Pacer
}

func (c rwLockCtx) Read(a mem.Addr) uint64 {
	c.p.Tick()
	return c.f.m.Load(a)
}

func (c rwLockCtx) Write(a mem.Addr, v uint64) {
	c.p.Tick()
	if !c.f.raised {
		c.f.m.Store(c.f.addr, 1)
		c.f.raised = true
	}
	c.f.m.Store(a, v)
}

func (c rwLockCtx) InHTM() bool  { return false }
func (c rwLockCtx) Unsupported() {}
