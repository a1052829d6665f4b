// Package core implements the paper's primary contribution: transactional
// lock elision (TLE) and its two refinements, RW-TLE and FG-TLE, plus the
// adaptive FG-TLE extension (§4.2.1) and the lazy-subscription option (§5).
//
// # Execution model
//
// A critical section is written once as a function of a Context, the
// analogue of the two code paths GCC generates for transactional programs:
// the same body runs uninstrumented on the HTM fast path, instrumented on
// the HTM slow path, and instrumented (or not) under the lock, with each
// synchronization Method supplying the barrier behaviour per path — exactly
// the role the libitm ABI plays in the paper's implementation (§1, §6.2).
//
// A Method is a synchronization algorithm bound to one lock and one
// simulated heap. Because the algorithms keep per-thread state (retry
// counters, orec bookkeeping, transaction contexts), each worker goroutine
// obtains its own Thread via Method.NewThread and calls Atomic on it.
//
// # One loop, one copy of each barrier set
//
// Figure 1's control flow — fast HTM with the lock subscribed, instrumented
// slow HTM beside the holder, the lock — is written once, as
// refinedThread.Atomic. The elision methods are configurations of it: TLE
// sets neither hook (no slow path means "wait until the lock is free"), HLE
// is TLE with a budget of one that does not look at the lock first, RW-TLE
// plugs in WriteFlag (§3's protocol, also held by guard.RWMutex), and both
// FG-TLE flavours plug in fgtleThread's orec barriers (§4), which read
// their orec count live. The per-thread state all of them — and the guards
// — run on is Exec, whose AcquireLock/ReleaseLock pair is the one bracket
// around every lock-held section. ALE keeps its own loop: its fast path is
// the instrumented one and it never waits on the lock. What its buffered
// software section keeps — reads by value, writes held back — is ValueLog,
// the same log NOrec's transaction (internal/norec, embedded by
// internal/rhnorec) runs on.
//
// # Contract for critical-section bodies
//
// Real HTM rolls back registers and stack on abort; a simulation cannot
// roll back Go locals. Bodies therefore must (1) route every access to
// shared simulated memory through the Context, and (2) be re-executable:
// any captured Go state they mutate must be reset at the top of the body or
// only written on the final (committed) execution. All data structures in
// this repository follow that rule.
package core

import (
	"runtime"

	"rtle/internal/htm"
	"rtle/internal/mem"
)

// Context is the access interface a critical section runs against. The
// concrete behaviour of Read and Write depends on the executing path:
// uninstrumented transactional access on the fast path, barrier-
// instrumented transactional access on the slow path, plain or barrier-
// instrumented memory access under the lock.
type Context interface {
	// Read returns the word at a.
	Read(a mem.Addr) uint64
	// Write stores v at a.
	Write(a mem.Addr, v uint64)
	// InHTM reports whether the body is executing inside a hardware
	// transaction (the on_htm() predicate of the paper's barriers).
	InHTM() bool
	// Unsupported models an instruction HTM cannot execute (§6.3's
	// divide-by-zero). Inside a transaction it aborts the attempt; under
	// the lock it is a no-op.
	Unsupported()
}

// Method is a synchronization algorithm: a lock-elision scheme, a plain
// lock, or a TM system, bound to a heap and a lock.
type Method interface {
	// Name identifies the method in reports ("TLE", "FG-TLE(256)", ...).
	Name() string
	// NewThread returns a per-goroutine execution handle. Threads must
	// not be shared between goroutines.
	NewThread() Thread
}

// Thread executes atomic blocks on behalf of one goroutine.
type Thread interface {
	// Atomic runs body with the semantics of a critical section
	// protected by the method's lock. It returns only after the body has
	// executed exactly once with effect (earlier aborted speculative
	// executions have no effect).
	Atomic(body func(Context))
	// Stats exposes this thread's counters. The caller may read them
	// after the thread has quiesced.
	Stats() *Stats
}

// Policy holds the speculation knobs shared by the elision methods. The
// zero value selects the paper's configuration.
type Policy struct {
	// Attempts is the number of fast-path HTM attempts before falling
	// back to the lock. The paper uses a static 5 (§2, footnote 1).
	Attempts int
	// LazySubscription makes slow-path transactions subscribe to the
	// lock just before committing (§5), restoring the "cannot complete
	// while the lock is held" semantics needed by barrier-style lock
	// usages (Figure 4) at the cost of slow-path concurrency.
	LazySubscription bool
	// AdaptiveAttempts replaces the static budget with a per-thread
	// AIMD policy in the spirit of the paper's references [12, 13]
	// (see AttemptPolicy). Attempts then seeds the initial budget.
	AdaptiveAttempts bool
	// Observer, when non-nil, hands every thread a Slot into which the
	// thread publishes its Stats at the end of each atomic block, with the
	// latency of one block in 16, so metrics can be read while workers run
	// instead of only after they quiesce. internal/obs provides the
	// standard Registry implementation. Nil disables observation at the
	// cost of one nil check per block.
	Observer Observer
	// HTM configures the simulated hardware (capacities, fault
	// injection).
	HTM htm.Config
	// LockFault, when non-nil, is invoked by every method's pessimistic
	// path right after the fallback lock is acquired, letting a fault
	// injector (internal/fault) stretch lock-holder critical sections —
	// latency spikes the transactional paths must survive. Nil disables
	// the hook at the cost of one nil check per lock acquisition.
	LockFault LockFaultHook
}

// DefaultAttempts is the paper's retry budget.
const DefaultAttempts = 5

// AttemptBudget returns the static fast-path attempt budget: Attempts, or
// the paper's default when it is unset.
func (p Policy) AttemptBudget() int {
	if p.Attempts > 0 {
		return p.Attempts
	}
	return DefaultAttempts
}

// Stats are per-thread counters. They are written by exactly one goroutine
// and read after it quiesces, so plain fields suffice. Merge aggregates
// across threads.
//
// The fields cover every statistic the paper plots: fast/slow-path commits
// (Figs. 5, 6), executions and time under lock (Figs. 6, 7), abort
// reasons, and the STM counters used by NOrec/RHNOrec (Figs. 8–10).
type Stats struct {
	// Ops is the number of completed atomic blocks.
	Ops uint64

	// FastCommits counts HTM commits on the uninstrumented fast path.
	FastCommits uint64
	// SlowCommits counts HTM commits on the instrumented slow path,
	// i.e. transactions that completed while a thread held the lock
	// (the SlowHTM series of Fig. 6).
	SlowCommits uint64
	// LockRuns counts pessimistic executions under the lock.
	LockRuns uint64

	// FastAttempts and SlowAttempts count transaction attempts per path.
	FastAttempts uint64
	SlowAttempts uint64
	// FastAborts and SlowAborts break down failed attempts by reason.
	FastAborts [htm.NumReasons]uint64
	SlowAborts [htm.NumReasons]uint64
	// InjectedAborts breaks down, by reason, the subset of hardware
	// aborts (either path) that were forced by a fault injector rather
	// than arising organically.
	InjectedAborts [htm.NumReasons]uint64
	// SubscriptionAborts counts fast-path attempts that aborted because
	// the lock was observed held after transaction begin.
	SubscriptionAborts uint64

	// LockHoldNanos is the total time this thread held the lock.
	LockHoldNanos int64

	// STM counters (NOrec and RHNOrec).
	STMStarts      uint64 // software transaction attempts
	STMCommitsHTM  uint64 // software commits completed via a small HTM transaction (STMFastCommit, Fig. 9)
	STMCommitsLock uint64 // software commits that fell back to the global lock (STMSlowCommit, Fig. 9)
	STMCommitsRO   uint64 // read-only software commits (no serialization point needed)
	STMAborts      uint64 // software transaction validation failures
	Validations    uint64 // value-based read-set validations (Fig. 10)
	STMTimeNanos   int64  // total time spent inside software transactions (Fig. 8)

	// Mode counters: FG-TLE's, adaptive FG-TLE's and the guards'.
	Resizes      uint64 // adaptive FG-TLE orec-array resizes
	ModeSwitches uint64 // mode changes made under the lock: FG-TLE writers admitted <-> readers only, adaptive FG-TLE <-> plain TLE, a guard's retreat and return
}

// Merge adds other into s.
func (s *Stats) Merge(other *Stats) {
	s.Ops += other.Ops
	s.FastCommits += other.FastCommits
	s.SlowCommits += other.SlowCommits
	s.LockRuns += other.LockRuns
	s.FastAttempts += other.FastAttempts
	s.SlowAttempts += other.SlowAttempts
	for i := range s.FastAborts {
		s.FastAborts[i] += other.FastAborts[i]
		s.SlowAborts[i] += other.SlowAborts[i]
		s.InjectedAborts[i] += other.InjectedAborts[i]
	}
	s.SubscriptionAborts += other.SubscriptionAborts
	s.LockHoldNanos += other.LockHoldNanos
	s.STMStarts += other.STMStarts
	s.STMCommitsHTM += other.STMCommitsHTM
	s.STMCommitsLock += other.STMCommitsLock
	s.STMCommitsRO += other.STMCommitsRO
	s.STMAborts += other.STMAborts
	s.Validations += other.Validations
	s.STMTimeNanos += other.STMTimeNanos
	s.Resizes += other.Resizes
	s.ModeSwitches += other.ModeSwitches
}

// Pacer is the non-transactional half of concurrency virtualization (see
// htm.Config.InterleaveEvery): code running under the lock or in a
// software transaction yields the processor every Every shared-memory
// accesses, so that on hosts with fewer cores than threads every
// execution path advances at a comparable per-access rate — as it would
// on real parallel hardware — and speculation windows against lock
// holders actually open. An Every of zero disables pacing.
type Pacer struct {
	Every int
	n     int
}

// Tick records one shared-memory access, yielding when the quota is hit.
func (p *Pacer) Tick() {
	if p.Every > 0 {
		p.n++
		if p.n%p.Every == 0 {
			runtime.Gosched()
		}
	}
}

// LockFallbackFraction returns the fraction of atomic blocks that
// acquired the lock (§6.4.2 reports it for ccTSA).
func (s *Stats) LockFallbackFraction() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.LockRuns) / float64(s.Ops)
}

// TotalCommits returns completed critical-section executions by path sum.
func (s *Stats) TotalCommits() uint64 {
	return s.FastCommits + s.SlowCommits + s.LockRuns +
		s.STMCommitsHTM + s.STMCommitsLock + s.STMCommitsRO
}
