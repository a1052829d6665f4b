package rtle

import (
	"fmt"

	"rtle/internal/guard"
	"rtle/internal/mem"
)

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
// subscription. See the internal/guard package documentation for the
// execution model and DESIGN.md §8 for the soundness argument.

// Guard types, aliased from internal/guard.
type (
	// Mutex is a sync.Mutex-shaped elision guard backed by TLE.
	Mutex = guard.Mutex
	// RWMutex is a sync.RWMutex-shaped elision guard backed by RW-TLE.
	RWMutex = guard.RWMutex
	// GuardRetreatConfig tunes a guard's abort-rate-aware retreat (see
	// WithGuardRetreat).
	GuardRetreatConfig = guard.RetreatConfig
)

// guardConfig collects what the guard options assemble.
type guardConfig struct {
	memory *Memory
	words  int
	cfg    guard.Config
	set    []string
}

func (c *guardConfig) mark(name string) { c.set = append(c.set, name) }

// GuardOption configures NewMutex and NewRWMutex. The options mirror
// New's: the same Policy fields feed the same speculation machinery.
type GuardOption func(*guardConfig)

// WithGuardMemory puts the guard's lock (and the data it will protect) in
// an existing heap, so guards can share an address space with each other
// and with New-built methods. Default: a fresh heap.
func WithGuardMemory(m *Memory) GuardOption {
	return func(c *guardConfig) { c.memory = m; c.mark("WithGuardMemory") }
}

// WithGuardMemoryWords sizes the heap the constructor allocates when
// WithGuardMemory is not given. Default 1<<20 words: 8 MB of address space,
// resident as touched.
func WithGuardMemoryWords(words int) GuardOption {
	return func(c *guardConfig) { c.words = words; c.mark("WithGuardMemoryWords") }
}

// WithGuardAttempts sets the per-section HTM retry budget (paper default 5).
func WithGuardAttempts(n int) GuardOption {
	return func(c *guardConfig) { c.cfg.Policy.Attempts = n }
}

// WithGuardAdaptiveAttempts replaces the static retry budget with the
// AIMD policy seeded by the WithGuardAttempts value.
func WithGuardAdaptiveAttempts() GuardOption {
	return func(c *guardConfig) { c.cfg.Policy.AdaptiveAttempts = true }
}

// WithGuardLazySubscription makes RWMutex slow-path read sections
// subscribe to the writer lock just before committing (§5). It applies
// only to RWMutex: plain TLE has no slow path, so NewMutex rejects it.
func WithGuardLazySubscription() GuardOption {
	return func(c *guardConfig) {
		c.cfg.Policy.LazySubscription = true
		c.mark("WithGuardLazySubscription")
	}
}

// WithGuardObserver streams the guard's execution events into obs, same
// contract as WithObserver.
func WithGuardObserver(o Observer) GuardOption {
	return func(c *guardConfig) { c.cfg.Policy.Observer = o }
}

// WithGuardHTM replaces the simulated-HTM configuration wholesale.
func WithGuardHTM(cfg HTMConfig) GuardOption {
	return func(c *guardConfig) { c.cfg.Policy.HTM = cfg }
}

// WithGuardInterleave sets only the concurrency-virtualization knob (see
// WithInterleave).
func WithGuardInterleave(n int) GuardOption {
	return func(c *guardConfig) { c.cfg.Policy.HTM.InterleaveEvery = n }
}

// WithGuardRetreat tunes the abort-rate-aware retreat controller.
func WithGuardRetreat(cfg GuardRetreatConfig) GuardOption {
	return func(c *guardConfig) { c.cfg.Retreat = cfg }
}

// WithGuardPolicy replaces the assembled Policy wholesale. It is the
// escape hatch for wiring that has no dedicated option — most notably a
// fault plan: build a Policy, let a fault Director configure it, then
// hand it to the guard. Later per-field guard options still apply on top.
func WithGuardPolicy(p Policy) GuardOption {
	return func(c *guardConfig) { c.cfg.Policy = p }
}

// newGuardConfig folds the options and resolves the heap.
func newGuardConfig(opts []GuardOption) (*guardConfig, *Memory, error) {
	c := &guardConfig{words: 1 << 20}
	for _, opt := range opts {
		opt(c)
	}
	if c.memory != nil && has(c.set, "WithGuardMemoryWords") {
		return nil, nil, fmt.Errorf("rtle: WithGuardMemoryWords conflicts with WithGuardMemory (the supplied heap fixes the size)")
	}
	m := c.memory
	if m == nil {
		if c.words <= 0 {
			return nil, nil, fmt.Errorf("rtle: guard memory size %d words is not positive", c.words)
		}
		m = mem.New(c.words)
	}
	return c, m, nil
}

func has(set []string, name string) bool {
	for _, s := range set {
		if s == name {
			return true
		}
	}
	return false
}

// NewMutex assembles a TLE-backed elision guard (and a fresh heap, unless
// WithGuardMemory supplies one).
func NewMutex(opts ...GuardOption) (*Mutex, error) {
	c, m, err := newGuardConfig(opts)
	if err != nil {
		return nil, err
	}
	if c.cfg.Policy.LazySubscription {
		return nil, fmt.Errorf("rtle: WithGuardLazySubscription has no effect on Mutex (plain TLE has no slow path); use NewRWMutex")
	}
	return guard.NewMutex(m, c.cfg), nil
}

// NewRWMutex assembles an RW-TLE-backed elision guard.
func NewRWMutex(opts ...GuardOption) (*RWMutex, error) {
	c, m, err := newGuardConfig(opts)
	if err != nil {
		return nil, err
	}
	return guard.NewRWMutex(m, c.cfg), nil
}

// MustNewMutex is NewMutex for statically-known configurations; it panics
// on error.
func MustNewMutex(opts ...GuardOption) *Mutex {
	g, err := NewMutex(opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// MustNewRWMutex is NewRWMutex for statically-known configurations; it
// panics on error.
func MustNewRWMutex(opts ...GuardOption) *RWMutex {
	g, err := NewRWMutex(opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// NewMutex returns a guard sharing the TM's heap and policy (attempt
// budget, observer, HTM configuration, fault hooks), so guard sections
// and Thread sections coexist in one address space under one
// configuration. Guard options apply on top.
func (tm *TM) NewMutex(opts ...GuardOption) (*Mutex, error) {
	return NewMutex(append(tm.guardDefaults(), opts...)...)
}

// NewRWMutex is the RW-TLE analogue of TM.NewMutex.
func (tm *TM) NewRWMutex(opts ...GuardOption) (*RWMutex, error) {
	return NewRWMutex(append(tm.guardDefaults(), opts...)...)
}

func (tm *TM) guardDefaults() []GuardOption {
	return []GuardOption{WithGuardMemory(tm.m), WithGuardPolicy(tm.policy)}
}
