package fault

import (
	"runtime"
	"sync/atomic"

	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/rng"
)

// Director executes one Plan across all threads of a run. It implements
// core.LockFaultHook and hands out per-thread htm.Injector instances via
// NewInjector; wire both into a run with Configure (or manually through
// Policy.LockFault and Config.NewInjector). A Director must not be reused
// across runs when exact replay matters — its global counters carry over.
type Director struct {
	plan Plan

	// threads hands out per-thread stream ordinals in injector-creation
	// order; attempts and locks are the global counters behind the
	// window rules (storms, squeezes) and lock spikes.
	threads  atomic.Int64
	attempts atomic.Int64
	locks    atomic.Int64

	// injected counts the faults the injectors decided to force,
	// maintained live so tests and the fuzzer can see activity without
	// quiescing threads. Capacity aborts caused by a squeeze are decided
	// inside htm (the injector only shrinks the limit), so they appear in
	// the Txs' Stats.Injected but not here.
	injected [htm.NumReasons]atomic.Uint64
}

// NewDirector returns a Director that executes plan.
func NewDirector(plan Plan) *Director {
	return &Director{plan: plan}
}

// Plan returns the plan this Director executes.
func (d *Director) Plan() Plan { return d.plan }

// Configure wires the Director into a Policy: every Tx the methods create
// gets a per-thread injector, and, when the plan has lock spikes, every
// fallback-lock acquisition reports to the Director.
func (d *Director) Configure(p *core.Policy) {
	p.HTM.NewInjector = d.NewInjector
	if d.plan.LockSpikeEvery > 0 && d.plan.LockSpikeSpins > 0 {
		p.LockFault = d
	}
}

// Injected returns a live snapshot of faults injected so far, by reason.
func (d *Director) Injected() [htm.NumReasons]uint64 {
	var out [htm.NumReasons]uint64
	for i := range out {
		out[i] = d.injected[i].Load()
	}
	return out
}

// TotalInjected returns the total faults injected so far.
func (d *Director) TotalInjected() uint64 {
	var n uint64
	for i := range d.injected {
		n += d.injected[i].Load()
	}
	return n
}

// LockSpins returns the number of lock acquisitions stretched so far.
func (d *Director) LockSpins() uint64 {
	if d.plan.LockSpikeEvery <= 0 {
		return 0
	}
	return uint64(d.locks.Load()) / uint64(d.plan.LockSpikeEvery)
}

// OnLockAcquired implements core.LockFaultHook: every LockSpikeEvery-th
// global lock acquisition spins for LockSpikeSpins iterations while holding
// the lock, simulating a lock holder that suddenly goes slow.
func (d *Director) OnLockAcquired() {
	p := d.plan
	if p.LockSpikeEvery <= 0 || p.LockSpikeSpins <= 0 {
		return
	}
	n := d.locks.Add(1)
	if n%int64(p.LockSpikeEvery) != 0 {
		return
	}
	for i := 0; i < p.LockSpikeSpins; i++ {
		if i%64 == 63 {
			// Yield so a GOMAXPROCS-bound host still schedules the
			// waiters we are deliberately stalling.
			runtime.Gosched()
		}
	}
}

// NewInjector returns the next per-thread injector, nil (a hook-free Tx)
// for a plan without transactional faults. Matches htm.Config.NewInjector.
// Each injector owns a private xoshiro256** stream derived from (Seed,
// thread ordinal), so one thread's probabilistic decisions are a pure
// function of the plan and its creation rank.
func (d *Director) NewInjector() htm.Injector {
	id := d.threads.Add(1) - 1
	if !d.plan.txFaults() {
		return nil
	}
	return &injector{
		d:   d,
		rng: rng.NewXoshiro256(d.plan.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15),
	}
}

// injector is the per-thread htm.Injector. Single-threaded by construction
// (one per Tx, one Tx per thread), so its fields need no synchronization;
// only the Director's counters are shared.
type injector struct {
	d   *Director
	rng *rng.Xoshiro256

	attempt int64 // this thread's attempt count (for NthEvery)
}

// count records an injected fault in the Director's live mirror. The Tx's
// own Stats.Injected is bumped by htm.Run when the abort unwinds; this
// mirror exists so fault activity is visible without quiescing threads.
func (in *injector) count(r htm.AbortReason) htm.AbortReason {
	if r != htm.None {
		in.d.injected[r].Add(1)
	}
	return r
}

// TxBegin implements htm.Injector.
func (in *injector) TxBegin() (readLines, writeLines int, reason htm.AbortReason) {
	p := in.d.plan
	in.attempt++
	var global int64 // shared across threads: touched only for window rules
	if p.StormEvery > 0 || p.SqueezeEvery > 0 {
		global = in.d.attempts.Add(1)
	}

	// Conflict storm: every attempt starting inside the window dies,
	// whichever thread it belongs to — the synchronized volley that
	// triggers the lemming effect.
	if p.StormEvery > 0 && int(global%int64(p.StormEvery)) < p.stormLen() {
		return 0, 0, in.count(htm.Conflict)
	}

	if p.BeginProb > 0 && in.rng.Float64() < p.BeginProb {
		return 0, 0, in.count(p.reason())
	}

	// Capacity squeeze: attempts starting inside the window run with
	// shrunk effective read/write-set limits (0 keeps the configured
	// limit; htm clamps at the configured caps).
	if p.SqueezeEvery > 0 && int(global%int64(p.SqueezeEvery)) < p.squeezeLen() {
		readLines, writeLines = p.SqueezeReadLines, p.SqueezeWriteLines
	}
	return readLines, writeLines, htm.None
}

// TxAccess implements htm.Injector. nth is the 1-based transactional access
// ordinal within the current attempt.
func (in *injector) TxAccess(nth int, write bool) htm.AbortReason {
	p := in.d.plan
	if p.NthAccess > 0 && nth == p.NthAccess && in.attempt%int64(p.nthEvery()) == 0 {
		return in.count(p.nthReason())
	}
	if p.AccessProb > 0 && in.rng.Float64() < p.AccessProb {
		return in.count(p.reason())
	}
	return htm.None
}

// TxPreCommit implements htm.Injector.
func (in *injector) TxPreCommit() htm.AbortReason {
	p := in.d.plan
	if p.CommitProb > 0 && in.rng.Float64() < p.CommitProb {
		return in.count(p.reason())
	}
	return htm.None
}
