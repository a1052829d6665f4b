package rtle

import "rtle/internal/guard"

// This file is the guard half of the public API: sync-shaped locks that
// elide. Where New builds a Method + Thread pair (fixed worker identity,
// the paper's experimental harness shape), a guard is callable from any
// goroutine and drops into code already structured around sync.Mutex:
//
//	g := rtle.MustNewMutex()
//	counter := g.Memory().AllocLines(1)
//	g.Do(func(c rtle.Context) {           // elides: speculative, subscribed
//		c.Write(counter, c.Read(counter)+1)
//	})
//	g.Lock()                              // pessimistic bracket form
//	g.Ctx().Write(counter, 0)
//	g.Unlock()
//
// Do/RDo closures speculate (TLE / RW-TLE with abort-budget fallback and
// abort-rate-aware retreat); Lock/Unlock and RLock/RUnlock brackets always
// take the real lock, because Go cannot re-execute the code between two
// calls after a hardware abort — the two forms interoperate through lock
// subscription. The constructors take New's Option set, scoped like the
// algorithm behind each guard (TLE for Mutex, RW-TLE for RWMutex). The
// retreat's thresholds are fixed; see the internal/guard package
// documentation for them and the execution model, and DESIGN.md §8 for the
// soundness argument.

// Guard types, aliased from internal/guard.
type (
	// Mutex is a sync.Mutex-shaped elision guard backed by TLE.
	Mutex = guard.Mutex
	// RWMutex is a sync.RWMutex-shaped elision guard backed by RW-TLE.
	RWMutex = guard.RWMutex
)

// NewMutex assembles a TLE-backed elision guard (and a fresh heap, unless
// WithMemory supplies one). Options are New's, scoped like TLE.
func NewMutex(opts ...Option) (*Mutex, error) {
	return newMutex(config{}, opts)
}

// NewRWMutex assembles an RW-TLE-backed elision guard. Options are New's,
// scoped like RWTLE.
func NewRWMutex(opts ...Option) (*RWMutex, error) {
	return newRWMutex(config{}, opts)
}

// MustNewMutex is NewMutex for statically-known configurations; it panics
// on error.
func MustNewMutex(opts ...Option) *Mutex {
	g, err := NewMutex(opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// MustNewRWMutex is NewRWMutex for statically-known configurations; it
// panics on error.
func MustNewRWMutex(opts ...Option) *RWMutex {
	g, err := NewRWMutex(opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// NewMutex returns a guard sharing the TM's heap and policy (attempt
// budget, observer, HTM configuration, fault hooks), so guard sections
// and Thread sections coexist in one address space under one
// configuration. Options apply on top.
func (tm *TM) NewMutex(opts ...Option) (*Mutex, error) {
	return newMutex(config{memory: tm.m, policy: tm.policy}, opts)
}

// NewRWMutex is the RW-TLE analogue of TM.NewMutex.
func (tm *TM) NewRWMutex(opts ...Option) (*RWMutex, error) {
	return newRWMutex(config{memory: tm.m, policy: tm.policy}, opts)
}

func newMutex(base config, opts []Option) (*Mutex, error) {
	c, err := configure(TLE, "TLE-backed Mutex", base, opts)
	if err != nil {
		return nil, err
	}
	return guard.NewMutex(c.memory, c.policy), nil
}

func newRWMutex(base config, opts []Option) (*RWMutex, error) {
	c, err := configure(RWTLE, "RW-TLE-backed RWMutex", base, opts)
	if err != nil {
		return nil, err
	}
	return guard.NewRWMutex(c.memory, c.policy), nil
}
