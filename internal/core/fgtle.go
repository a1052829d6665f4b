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
//     epoch into the orec of every cache line it reads or writes (at most
//     once per orec per critical section), and bumps the epoch again before
//     releasing — implicitly releasing all orecs without a single store to
//     them, so slow-path transactions survive the release.
//   - A slow-path transaction snapshots the epoch before it begins. Its
//     read barrier checks the write orec; its write barrier checks both
//     orecs; an orec stamped at or after the snapshot means a potential
//     conflict with the lock holder and the transaction self-aborts
//     (Figure 3).
//
// An orec covers cache lines, not words (orecIndex): the line is the unit the
// hardware paths detect conflicts at, so two words of one line could never
// be told apart by a transaction anyway, and an orec each only doubled the
// holder's stamps and the slow path's checks. For the same reason a barrier
// runs once per line, not once per access, while an attempt or a section
// stays on that line (DESIGN.md §4, decision 7).
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

// orecIndex maps an address to one of n ownership records by its cache
// line. It is the only place an address becomes an orec: FG-TLE(n), adaptive
// FG-TLE and ALE (the §2 comparison point) all hash through it.
func orecIndex(a mem.Addr, n uint64) uint64 { return wanghash.Hash(mem.LineOf(a), n) }

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

	// State of the slow attempt or lock section in flight (a thread runs one
	// at a time), kept here and not in the Context so that a Context stays
	// one pointer and is never boxed.
	localSeq uint64 // Figure 3's local_seq_number: the epoch before the slow attempt began
	slowSize uint64 // orec count of the slow attempt (adaptive reads it inside the transaction)
	lastR    uint64 // line+1 whose read barrier ran last in this attempt or section, 0 = none
	lastW    uint64 // line+1 whose write barrier ran last
}

func newFGThread(e Exec, o orecTable, size uint64) fgtleThread {
	return fgtleThread{refinedThread: refinedThread{Exec: e}, orecTable: o, size: size, slowSize: size}
}

// beginSlow opens a slow-path attempt: it forgets the lines the previous
// attempt's barriers vouched for and takes Figure 3's local_seq_number
// before the transaction begins, so the epoch line itself is not subscribed
// and the lock release does not abort slow-path transactions.
//
//rtle:slowpath
func (t *fgtleThread) beginSlow() {
	t.lastR, t.lastW = 0, 0
	// The raw load is the algorithm: the snapshot must predate the
	// transaction so the epoch line stays out of the read set.
	//rtle:ignore barrierdiscipline pre-transaction epoch snapshot (Figure 3 local_seq_number)
	t.localSeq = t.m.Load(t.epochAddr)
}

// runSlow is one instrumented slow-path attempt.
//
//rtle:slowpath
func (t *fgtleThread) runSlow(body func(Context)) htm.AbortReason {
	t.beginSlow()
	return t.Tx.Run(func(tx *htm.Tx) {
		body(fgSlowCtx{t})
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
	t.lastR, t.lastW = 0, 0
	body(fgLockCtx{t})
	m.Store(t.epochAddr, t.seq+1)
}

// fgSlowCtx is the instrumented slow path of Figure 3's on_htm() branches,
// over the first slowSize orecs of each array. A barrier that already ran
// for the line in this attempt is not repeated: its orec is in the read set,
// so a stamp since then fails the attempt anyway — at the access itself
// when the holder went on to store to the line (its version then exceeds
// the snapshot), at commit-time validation when the attempt writes.
type fgSlowCtx struct {
	t *fgtleThread
}

//rtle:slowpath
func (c fgSlowCtx) Read(a mem.Addr) uint64 {
	t := c.t
	tx := t.Tx
	if line := mem.LineOf(a) + 1; line != t.lastR && line != t.lastW {
		if tx.Read(t.wOrecs+mem.Addr(orecIndex(a, t.slowSize))) >= t.localSeq {
			tx.Abort()
		}
		t.lastR = line
	}
	return tx.Read(a)
}

// Write checks both orecs even after a read of the same line: the read
// barrier never looked at the r-orec.
//
//rtle:slowpath
func (c fgSlowCtx) Write(a mem.Addr, v uint64) {
	t := c.t
	tx := t.Tx
	if line := mem.LineOf(a) + 1; line != t.lastW {
		idx := mem.Addr(orecIndex(a, t.slowSize))
		if tx.Read(t.rOrecs+idx) >= t.localSeq || tx.Read(t.wOrecs+idx) >= t.localSeq {
			tx.Abort()
		}
		t.lastW = line
	}
	tx.Write(a, v)
}

func (c fgSlowCtx) InHTM() bool  { return true }
func (c fgSlowCtx) Unsupported() { c.t.Tx.Unsupported() }

// fgLockCtx is the instrumented pessimistic path of Figure 3's else
// branches, with both of the paper's §4.2 optimizations: an orec is written
// at most once per critical section (skip if it already holds the current
// epoch), and once every orec has been acquired the barrier reduces to the
// plain access (skip the hash entirely). Staying on the line whose barrier
// ran last skips hash and probe too; a read of a line just written needs no
// r-orec, the w-orec already turns every slow-path access to it away.
type fgLockCtx struct {
	t *fgtleThread
}

//rtle:lockpath
func (c fgLockCtx) Read(a mem.Addr) uint64 {
	t := c.t
	t.pacer.Tick()
	if line := mem.LineOf(a) + 1; line != t.lastR && line != t.lastW && t.uniqR < t.size {
		oa := t.rOrecs + mem.Addr(orecIndex(a, t.size))
		if t.m.Load(oa) < t.seq {
			t.m.Store(oa, t.seq)
			t.uniqR++
		}
		t.lastR = line
	}
	return t.m.Load(a)
}

//rtle:lockpath
func (c fgLockCtx) Write(a mem.Addr, v uint64) {
	t := c.t
	t.pacer.Tick()
	if line := mem.LineOf(a) + 1; line != t.lastW && t.uniqW < t.size {
		oa := t.wOrecs + mem.Addr(orecIndex(a, t.size))
		if t.m.Load(oa) < t.seq {
			t.m.Store(oa, t.seq)
			t.uniqW++
		}
		t.lastW = line
	}
	t.m.Store(a, v)
}

func (c fgLockCtx) InHTM() bool  { return false }
func (c fgLockCtx) Unsupported() {}
