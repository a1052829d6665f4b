package check

import (
	"fmt"

	"rtle/internal/core"
	"rtle/internal/guard"
	"rtle/internal/mem"
)

// guardOps erases the difference between Mutex and RWMutex so one
// workload body can drive either. For the plain Mutex the read forms
// degrade to the write forms, exactly as a sync.Mutex user would write
// it.
type guardOps struct {
	do  func(func(core.Context))
	rdo func(func(core.Context))
	// lock acquires the (writer) bracket and returns its context;
	// unlock releases it. rlock/runlock are the reader bracket.
	lock    func() core.Context
	unlock  func()
	rlock   func() core.Context
	runlock func()
}

// buildGuardOps constructs the named guard variant over m.
func buildGuardOps(variant string, m *mem.Memory, policy core.Policy) (*guardOps, error) {
	switch variant {
	case "Guard(TLE)":
		// Plain TLE has no slow path; the lazy-subscription knob would
		// silently do nothing, so strip it rather than mislead.
		policy.LazySubscription = false
		g := guard.NewMutex(m, policy)
		w := func() core.Context { g.Lock(); return g.Ctx() }
		return &guardOps{
			do: g.Do, rdo: g.Do,
			lock: w, unlock: g.Unlock,
			rlock: w, runlock: g.Unlock,
		}, nil
	case "Guard(RW-TLE)":
		g := guard.NewRWMutex(m, policy)
		return &guardOps{
			do: g.Do, rdo: g.RDo,
			lock:    func() core.Context { g.Lock(); return g.Ctx() },
			unlock:  g.Unlock,
			rlock:   func() core.Context { g.RLock(); return g.RCtx() },
			runlock: g.RUnlock,
		}, nil
	}
	return nil, fmt.Errorf("check: unknown guard variant %q", variant)
}

// Guard form mixing: every bracketEvery-th operation per thread uses the
// bracket (Lock/Unlock) form instead of the closure form, so histories
// always interleave pessimistic sections with speculative ones — that
// interoperation is precisely what the checker must vouch for.
const bracketEvery = 8

// section is the guard's check.section: the closure form through Do or
// RDo, and the bracket form for every bracketEvery-th op.
func (g *guardOps) section(i int, write bool, body func(core.Context)) {
	bracket := i%bracketEvery == bracketEvery-1
	switch {
	case bracket && write:
		c := g.lock()
		body(c)
		g.unlock()
	case bracket:
		c := g.rlock()
		body(c)
		g.runlock()
	case write:
		g.do(body)
	default:
		g.rdo(body)
	}
}

// RunGuardWorkload is RunWorkload with every critical section guarded by
// the named guard variant, built over m with policy, instead of run by a
// method's thread: the same operations and the same bodies, mixing closure
// and bracket forms. It returns the history and the sequential model to
// check it against.
//
// Reads go through RDo/RLock and writes through Do/Lock, so on the
// RW-TLE variant read-mostly phases exercise reader-reader parallelism
// and the instrumented slow path, while the TLE variant collapses both
// onto the single writer guard.
func RunGuardWorkload(kind, variant string, m *mem.Memory, policy core.Policy, cfg RunConfig) (*History, Model, error) {
	g, err := buildGuardOps(variant, m, policy)
	if err != nil {
		return nil, Model{}, err
	}
	return runRecorded(kind, m, cfg, func() section { return g.section })
}
