package guard

import (
	"rtle/internal/core"
	"rtle/internal/mem"
)

// Mutex is a sync.Mutex-shaped elision guard backed by plain TLE. Do runs
// a critical section speculatively with the lock word subscribed, falling
// back to the real lock after the attempt budget (or while the guard is
// in retreat). Lock/Unlock bracket a pessimistic section under the real
// lock; speculating Do sections abort the moment a bracket section
// acquires it, so the two forms compose soundly.
//
// Create with NewMutex; the zero value is not usable.
type Mutex struct{ base }

// NewMutex returns a TLE-backed guard whose lock lives on its own cache
// line of m.
func NewMutex(m *mem.Memory, cfg Config) *Mutex {
	g := &Mutex{}
	g.init(m, "Guard(TLE)", cfg)
	return g
}

// Do runs body as one atomic section, eliding the lock when it can: the
// paper's TLE loop with the guard's retreat gate in front. body must
// access shared data only through the Context and must be re-executable
// (it can run several times before one run commits).
func (g *Mutex) Do(body func(core.Context)) { g.do(exclusive, body) }

// Lock acquires the guard pessimistically, as sync.Mutex.Lock would.
// Access shared data through Ctx between Lock and Unlock.
func (g *Mutex) Lock() { g.enter(exclusive) }

// Unlock releases a Lock-acquired guard.
func (g *Mutex) Unlock() { g.exit() }

// Ctx returns the Context a bracket section accesses shared data through.
// It must only be used between Lock and Unlock.
func (g *Mutex) Ctx() core.Context { return g.holderCtx(exclusive) }
