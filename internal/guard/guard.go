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

	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
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
// is currently inside one of its sections: a hardware transaction, a
// pacer, an attempt policy, and a recorder. It is the guard-layer
// equivalent of a Thread, minus the fixed goroutine identity.
type gthread struct {
	tx       *htm.Tx
	pacer    *core.Pacer
	attempts core.AttemptPolicy
	rec      core.Recorder

	lockBusy bool // subscription check saw the lock held

	// Attempts and aborts not yet folded into the guard's retreat window.
	pendAttempts, pendAborts int
}

// base holds the machinery shared by Mutex and RWMutex.
type base struct {
	m       *mem.Memory
	policy  core.Policy
	name    string // observer/method label, e.g. "Guard(TLE)"
	retreat retreat

	pool sync.Pool // of *gthread

	mu      sync.Mutex
	threads []*gthread    // every gthread ever created, for Stats
	brec    core.Recorder // accounting for shared-bracket (RLock) sections
}

// init wires the pool and the bracket recorder. Single-threaded
// constructor use only.
//
//rtle:init
func (b *base) init(m *mem.Memory, name string, cfg Config) {
	if m == nil {
		panic("guard: nil Memory")
	}
	b.m = m
	b.policy = cfg.Policy
	b.name = name
	b.retreat.init(cfg.Retreat)
	b.brec = core.NewRecorder(cfg.Policy, name)
	b.pool.New = func() any { return b.newThread() }
}

// newThread builds and registers one gthread.
func (b *base) newThread() *gthread {
	t := &gthread{
		tx:       htm.NewTx(b.m, b.policy.HTM),
		pacer:    &core.Pacer{Every: b.policy.HTM.InterleaveEvery},
		attempts: core.AttemptPolicyFor(b.policy),
		rec:      core.NewRecorder(b.policy, b.name),
	}
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
		s.Merge(t.rec.Stats())
	}
	s.Merge(b.brec.Stats())
	return s
}
