package core

import (
	"rtle/internal/htm"
	"rtle/internal/mem"
)

// FastContext returns the uninstrumented fast-path Context over tx: raw
// transactional accesses with no software barriers, as produced by the
// compiler for the unmodified clone of a critical section. It is tx itself,
// so a fast-path access is one interface call; it must only be used inside
// tx.Run.
func FastContext(tx *htm.Tx) Context { return tx }

// directCtx is the uninstrumented pessimistic path: plain loads and stores
// by a thread that holds the lock (or runs single-threaded).
type directCtx struct {
	m *mem.Memory
}

func (c directCtx) Read(a mem.Addr) uint64     { return c.m.Load(a) }
func (c directCtx) Write(a mem.Addr, v uint64) { c.m.Store(a, v) }
func (c directCtx) InHTM() bool                { return false }
func (c directCtx) Unsupported()               {}

// Direct returns a Context that accesses m without any synchronization or
// instrumentation. It is intended for single-threaded setup code (building
// the initial data structure before an experiment starts) and for tests.
func Direct(m *mem.Memory) Context { return directCtx{m} }

// pacedDirectCtx is directCtx plus concurrency-virtualization pacing, used
// by uninstrumented lock paths when InterleaveEvery is configured.
type pacedDirectCtx struct {
	m *mem.Memory
	p *Pacer
}

func (c pacedDirectCtx) Read(a mem.Addr) uint64 {
	c.p.Tick()
	return c.m.Load(a)
}

func (c pacedDirectCtx) Write(a mem.Addr, v uint64) {
	c.p.Tick()
	c.m.Store(a, v)
}

func (c pacedDirectCtx) InHTM() bool  { return false }
func (c pacedDirectCtx) Unsupported() {}

// lockPathCtx picks the uninstrumented pessimistic-path context for a
// thread, paced when virtualization is on.
func lockPathCtx(m *mem.Memory, p *Pacer) Context {
	if p.Every > 0 {
		return pacedDirectCtx{m, p}
	}
	return directCtx{m}
}
