// Package spinlock implements the elidable lock used by all TLE variants: a
// test-and-test-and-set spin lock with bounded exponential backoff, living
// in simulated shared memory so that hardware transactions can subscribe to
// its word (read it transactionally) and abort when it changes — the
// mechanism at the heart of transactional lock elision.
//
// This mirrors the paper's experimental setup (§6.2): "a simple
// test-and-test-and-set lock with exponential backoff". Neither the paper
// nor this implementation addresses fairness or anti-starvation.
package spinlock

// The lock word lives in raw simulated memory by design; the txbody
// check (internal/analysis) does not apply here.
//
//rtle:engine

import (
	"runtime"

	"rtle/internal/mem"
)

// Lock word states.
const (
	free uint64 = 0
	held uint64 = 1
)

// maxBackoff bounds the exponential backoff (in local spin iterations).
const maxBackoff = 1 << 10

// Lock is a test-and-test-and-set spin lock in simulated memory. Create
// with New; the zero value is not usable.
type Lock struct {
	m    *mem.Memory
	addr mem.Addr
}

// New allocates a lock on its own cache line of m, so that subscription
// conflicts are confined to the lock word.
func New(m *mem.Memory) *Lock {
	return &Lock{m: m, addr: m.AllocLines(1)}
}

// NewAt wraps an existing word address as a lock. The word must be 0
// (unlocked) and should not share a line with unrelated data unless the
// caller wants the false-sharing semantics that implies (RW-TLE
// deliberately co-locates its write flag with the lock; see package core).
func NewAt(m *mem.Memory, addr mem.Addr) *Lock {
	return &Lock{m: m, addr: addr}
}

// Addr returns the address of the lock word, for transactional
// subscription.
func (l *Lock) Addr() mem.Addr { return l.addr }

// Memory returns the heap the lock lives in.
func (l *Lock) Memory() *mem.Memory { return l.m }

// Held reports whether the lock is currently held (a plain, racy probe, as
// in the TLE fast path's "is lock available?" test).
func (l *Lock) Held() bool { return l.m.Load(l.addr) == held }

// TryAcquire attempts one atomic acquisition and reports success.
func (l *Lock) TryAcquire() bool { return l.m.CAS(l.addr, free, held) }

// Acquire spins until it owns the lock, using test-and-test-and-set with
// exponential backoff. Under GOMAXPROCS=1 the backoff yields to the
// scheduler so the owner can run.
func (l *Lock) Acquire() {
	backoff := 1
	for {
		if !l.Held() && l.TryAcquire() {
			return
		}
		Backoff(&backoff, maxBackoff)
	}
}

// Backoff spins *n iterations, yielding to the scheduler every 16th and
// once after them, then doubles *n up to max: the exponential backoff of
// Acquire and of the elision loops' slow-path retries, which stays polite
// under GOMAXPROCS=1 and on loaded machines.
func Backoff(n *int, max int) {
	for i := 0; i < *n; i++ {
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
	runtime.Gosched()
	if *n < max {
		*n <<= 1
	}
}

// Release frees the lock. Calling Release on a lock that is not held
// corrupts it; the caller owns that protocol, as with a real spin lock.
func (l *Lock) Release() { l.m.Store(l.addr, free) }

// WaitUntilFree spins (politely) until the lock is observed free. TLE uses
// it between elision attempts, per Intel's anti-lemming guidance [16]: do
// not start a transaction that is doomed to abort on subscription.
func (l *Lock) WaitUntilFree() {
	for spins := 0; l.Held(); spins++ {
		if spins%8 == 7 {
			runtime.Gosched()
		}
	}
}
