package core

import (
	"fmt"

	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
	"rtle/internal/wanghash"
)

// FGTLEMethod implements FG-TLE (§4): fine-grained conflict detection
// between the lock holder and slow-path hardware transactions through two
// arrays of ownership records (orecs) — one for reads, one for writes —
// plus an epoch counter:
//
//   - The lock holder bumps the epoch after acquiring the lock, stamps the
//     epoch into the orec of every address it reads or writes (at most once
//     per orec per critical section), and bumps the epoch again before
//     releasing — implicitly releasing all orecs without a single store to
//     them, so slow-path transactions survive the release.
//   - A slow-path transaction snapshots the epoch before it begins. Its
//     read barrier checks the write orec; its write barrier checks both
//     orecs; an orec stamped at or after the snapshot means a potential
//     conflict with the lock holder and the transaction self-aborts
//     (Figure 3).
//
// The orec count is the tuning knob the paper sweeps (FG-TLE(1) ...
// FG-TLE(8192)).
type FGTLEMethod struct {
	elision
	orecTable
	orecs uint64
}

// orecTable locates §4's conflict-detection metadata in the heap: the epoch
// word and the read and write orec arrays. FG-TLE(n) uses all n orecs of
// each array; adaptive FG-TLE a live-sized prefix.
type orecTable struct {
	epochAddr mem.Addr //rtle:meta
	rOrecs    mem.Addr //rtle:meta
	wOrecs    mem.Addr //rtle:meta
}

//rtle:init
func newOrecTable(m *mem.Memory, orecs int) orecTable {
	var o orecTable
	o.epochAddr = m.AllocLines(1)
	// Epoch starts at 1 so that zero-initialized orecs read as unowned
	// (orec < snapshot) from the very first transaction.
	m.Store(o.epochAddr, 1)
	o.rOrecs = m.AllocAligned(orecs)
	o.wOrecs = m.AllocAligned(orecs)
	return o
}

// NewFGTLE returns an FG-TLE method over m with orecs ownership records per
// array. orecs must be a power of two between 1 and 1<<20.
func NewFGTLE(m *mem.Memory, orecs int, policy Policy) *FGTLEMethod {
	if orecs < 1 || orecs > 1<<20 || orecs&(orecs-1) != 0 {
		panic(fmt.Sprintf("core: FG-TLE orec count %d is not a power of two in [1, 2^20]", orecs))
	}
	return &FGTLEMethod{elision{m, spinlock.New(m), policy}, newOrecTable(m, orecs), uint64(orecs)}
}

// Name implements Method.
func (f *FGTLEMethod) Name() string { return fmt.Sprintf("FG-TLE(%d)", f.orecs) }

// Orecs returns the orec-array size.
func (f *FGTLEMethod) Orecs() int { return int(f.orecs) }

// NewThread implements Method.
func (f *FGTLEMethod) NewThread() Thread {
	t := newFGThread(f.exec(f.Name()), f.orecTable, f.orecs)
	t.slowAttempt = t.runSlow
	t.underLock = t.lockSection
	return &t
}

// fgtleThread carries §4's barriers for both FG-TLE flavours: they differ
// only in where the orec count comes from.
type fgtleThread struct {
	refinedThread
	orecTable

	// Lock-holder state for the current critical section.
	seq   uint64 //rtle:meta epoch stamped into acquired orecs
	size  uint64 //rtle:meta orec count: fixed for FG-TLE(n), re-read under the lock by adaptive FG-TLE
	uniqR uint64 //rtle:meta distinct read orecs acquired so far (Figure 3's uniq_r_orecs)
	uniqW uint64 //rtle:meta distinct write orecs acquired so far
}

func newFGThread(e Exec, o orecTable, size uint64) fgtleThread {
	return fgtleThread{refinedThread: refinedThread{Exec: e}, orecTable: o, size: size}
}

// epochSnapshot is Figure 3's local_seq_number, taken before the slow-path
// transaction begins, so the epoch line itself is not subscribed and the
// lock release does not abort slow-path transactions.
//
//rtle:slowpath
func (t *fgtleThread) epochSnapshot() uint64 {
	// The raw load is the algorithm: the snapshot must predate the
	// transaction so the epoch line stays out of the read set.
	//rtle:ignore barrierdiscipline pre-transaction epoch snapshot (Figure 3 local_seq_number)
	return t.m.Load(t.epochAddr)
}

// runSlow is one instrumented slow-path attempt.
//
//rtle:slowpath
func (t *fgtleThread) runSlow(body func(Context)) htm.AbortReason {
	localSeq := t.epochSnapshot()
	return t.Tx.Run(func(tx *htm.Tx) {
		body(fgSlowCtx{t, localSeq, t.size})
		t.lazySubscribe(tx)
	})
}

// lockSection is the instrumented pessimistic path of Figure 3's else
// branches: bump the epoch, stamp orecs while executing, bump the epoch
// again to release all orecs at once.
//
//rtle:lockpath
func (t *fgtleThread) lockSection(body func(Context)) {
	m := t.m
	t.seq = m.Load(t.epochAddr) + 1
	m.Store(t.epochAddr, t.seq)
	t.uniqR, t.uniqW = 0, 0
	body(fgLockCtx{t})
	m.Store(t.epochAddr, t.seq+1)
}

// fgSlowCtx is the instrumented slow path of Figure 3's on_htm() branches,
// over the first size orecs of each array. (Three words, not four: a Context
// wider than a pointer is allocated per attempt.)
type fgSlowCtx struct {
	t        *fgtleThread
	localSeq uint64
	size     uint64
}

//rtle:slowpath
func (c fgSlowCtx) Read(a mem.Addr) uint64 {
	tx := c.t.Tx
	idx := wanghash.Hash(uint64(a), c.size)
	if tx.Read(c.t.wOrecs+mem.Addr(idx)) >= c.localSeq {
		tx.Abort()
	}
	return tx.Read(a)
}

//rtle:slowpath
func (c fgSlowCtx) Write(a mem.Addr, v uint64) {
	tx := c.t.Tx
	idx := wanghash.Hash(uint64(a), c.size)
	if tx.Read(c.t.rOrecs+mem.Addr(idx)) >= c.localSeq ||
		tx.Read(c.t.wOrecs+mem.Addr(idx)) >= c.localSeq {
		tx.Abort()
	}
	tx.Write(a, v)
}

func (c fgSlowCtx) InHTM() bool  { return true }
func (c fgSlowCtx) Unsupported() { c.t.Tx.Unsupported() }

// fgLockCtx is the instrumented pessimistic path of Figure 3's else
// branches, with both of the paper's §4.2 optimizations: an orec is written
// at most once per critical section (skip if it already holds the current
// epoch), and once every orec has been acquired the barrier reduces to the
// plain access (skip the hash entirely).
type fgLockCtx struct {
	t *fgtleThread
}

//rtle:lockpath
func (c fgLockCtx) Read(a mem.Addr) uint64 {
	t := c.t
	t.pacer.Tick()
	if t.uniqR < t.size {
		idx := wanghash.Hash(uint64(a), t.size)
		oa := t.rOrecs + mem.Addr(idx)
		if t.m.Load(oa) < t.seq {
			t.m.Store(oa, t.seq)
			t.uniqR++
		}
	}
	return t.m.Load(a)
}

//rtle:lockpath
func (c fgLockCtx) Write(a mem.Addr, v uint64) {
	t := c.t
	t.pacer.Tick()
	if t.uniqW < t.size {
		idx := wanghash.Hash(uint64(a), t.size)
		oa := t.wOrecs + mem.Addr(idx)
		if t.m.Load(oa) < t.seq {
			t.m.Store(oa, t.seq)
			t.uniqW++
		}
	}
	t.m.Store(a, v)
}

func (c fgLockCtx) InHTM() bool  { return false }
func (c fgLockCtx) Unsupported() {}
