// Package guard implements the sync-shaped elision guards behind
// rtle.Mutex and rtle.RWMutex: lock APIs ordinary Go code can adopt
// without building a Method + Thread pair or restructuring workers around
// fixed thread identity.
//
// A guard is a lock in simulated memory plus the TLE control flow around
// it. The closure forms Do and RDo are the elidable entry points: they run
// the critical section as a hardware transaction with the lock word
// subscribed, retry up to the attempt budget, and fall back to really
// acquiring the lock — exactly the paper's Figure 1 loop (and, for
// RWMutex, the §3 RW-TLE refinement with its write flag). The bracket
// forms Lock/Unlock and RLock/RUnlock are deliberately pessimistic: Go
// cannot re-execute the straight-line code between two method calls after
// an abort, so a bracket section always takes the real lock and instead
// *interoperates* with elision — speculating Do sections subscribe to the
// words the brackets mutate and abort when a bracket section enters.
//
// Mutex.Do, RWMutex.Do and RWMutex.RDo are one loop (base.do) over the
// same pieces the methods of internal/core are built from: a core.Exec per
// section (transaction, lock-word subscription, the bracket around a
// lock-held run) and, for RWMutex, the core.WriteFlag that RW-TLE's own
// threads hold. The loop itself is the guard's own rather than core's
// because Do and RDo are concrete methods whose body stays on the caller's
// stack; core's loop takes its refinements as func-valued hooks, which
// would make every section allocate its closure (DESIGN §1.8 has the
// measurements). It departs from core's loop in one deliberate way: RDo
// charges slow-path aborts to the attempt budget, where core follows
// §6.2.1 and does not — a reader's fallback is a shared acquisition, so
// giving up is cheap (TestRDoSlowAbortsSpendTheBudget pins it).
//
// Guards differ from Threads in two ways that matter to callers:
//
//   - Identity-free: any goroutine may call any method at any time. Each
//     Do borrows per-execution state (transaction, attempt policy,
//     recorder) from a sync.Pool keyed to the guard, so the hot path
//     stays allocation-free without requiring per-worker handles.
//   - Abort-rate-aware retreat: beyond the per-block attempt budget, a
//     guard watches its recent abort rate and, when speculation is
//     persistently futile, retreats to the pessimistic path for a
//     (backoff-doubled) span of operations before probing again. Mode
//     changes surface as Stats.ModeSwitches.
//
// Accounting flows through the same core.Recorder plumbing as the nine
// methods, so guard sections feed Stats, live Observers, and
// fault.Director injection identically.
package guard

import (
	"sync"
	"time"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// Config assembles a guard. The zero value of Policy and Retreat are
// usable defaults; Memory must be non-nil (the root package's
// constructors always supply it).
type Config struct {
	// Policy carries the speculation knobs shared with the Method
	// constructors: attempt budget, adaptive attempts, lazy subscription
	// (RWMutex only), observer, HTM configuration, and the lock fault
	// hook a fault.Director installs.
	Policy core.Policy
	// Retreat tunes the per-guard abort-rate-aware retreat.
	Retreat RetreatConfig
}

// gthread is the per-execution state a guard lends to whichever goroutine
// is currently inside one of its sections: the same core.Exec a method's
// Thread runs on (transaction, pacer, attempt policy, recorder), minus the
// fixed goroutine identity.
type gthread struct {
	core.Exec

	// Attempts and aborts not yet folded into the guard's retreat window.
	pendAttempts, pendAborts int
}

// base is the guard proper; Mutex and RWMutex are its two public faces.
type base struct {
	m       *mem.Memory
	policy  core.Policy
	name    string // observer/method label, e.g. "Guard(TLE)"
	retreat retreat

	// lock is the word every section subscribes: the only lock of a Mutex,
	// the writer lock of an RWMutex. flag is §3's write flag, deliberately
	// on the lock word's line; only RWMutex sections use it, as they do
	// readersAddr, the bracket-reader count on a line of its own (unset in
	// a Mutex).
	lock        *spinlock.Lock
	flag        core.WriteFlag
	readersAddr mem.Addr

	pool sync.Pool // of *gthread

	mu      sync.Mutex
	threads []*gthread    // every gthread ever created, for Stats
	brec    core.Recorder // accounting for shared-bracket (RLock) sections

	// Bracket state, written only by the lock holder while it holds the
	// lock (the spinlock's atomics order these writes between successive
	// holders, as with any lock-protected field).
	holder    *gthread
	holdT0    int64
	holdStart time.Time
}

// init lays out the lock line and wires the pool and the bracket recorder.
// Single-threaded constructor use only.
func (b *base) init(m *mem.Memory, name string, cfg Config) {
	if m == nil {
		panic("guard: nil Memory")
	}
	b.m = m
	b.policy = cfg.Policy
	b.name = name
	line := m.AllocLines(1)
	b.lock = spinlock.NewAt(m, line)
	b.flag = core.NewWriteFlag(m, line+1)
	b.retreat.init(cfg.Retreat)
	b.brec = core.NewRecorder(cfg.Policy, name)
	b.pool.New = func() any { return b.newThread() }
}

// newThread builds and registers one gthread.
func (b *base) newThread() *gthread {
	t := &gthread{Exec: core.NewExec(b.m, b.lock, b.policy, b.name)}
	b.mu.Lock()
	b.threads = append(b.threads, t)
	b.mu.Unlock()
	return t
}

// get borrows per-execution state for the calling goroutine.
func (b *base) get() *gthread { return b.pool.Get().(*gthread) }

// put returns borrowed state to the cache. The gthread stays registered
// either way, so its counters survive a pool drop.
func (b *base) put(t *gthread) { b.pool.Put(t) }

// Memory returns the simulated heap the guard's lock lives in; data the
// guard protects must be allocated here.
func (b *base) Memory() *mem.Memory { return b.m }

// Name returns the guard's observer label.
func (b *base) Name() string { return b.name }

// Stats merges the counters of every execution the guard has served. Like
// Thread.Stats, the result is only coherent while no section is running
// (read-after-quiesce).
func (b *base) Stats() core.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var s core.Stats
	for _, t := range b.threads {
		s.Merge(t.Rec.Stats())
	}
	s.Merge(b.brec.Stats())
	return s
}
