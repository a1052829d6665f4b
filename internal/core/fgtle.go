package core

import (
	"fmt"
	"sync/atomic"

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
// An r-orec protects the holder's reads from slow-path *writers* and has one
// reader, the slow path's write barrier, so the holder stamps r-orecs only
// while a slow attempt has lately reached that barrier. Otherwise its
// sections are readers-only: no r-orec is stamped, and a slow-path write
// aborts itself as under RW-TLE — which tells the next holder to admit
// writers again (the mode word; DESIGN.md §4, decision 8).
//
// The orec count is the tuning knob the paper sweeps (FG-TLE(1) ...
// FG-TLE(8192)).
type FGTLEMethod struct {
	elision
	orecTable
	orecs uint64
}

// orecTable locates §4's conflict-detection metadata in the heap: the epoch
// word, the mode word and the read and write orec arrays. FG-TLE(n) uses all
// n orecs of each array; adaptive FG-TLE a live-sized prefix.
type orecTable struct {
	epochAddr mem.Addr
	admitAddr mem.Addr // the mode word: writersAdmitted or readersOnly, stored by lock holders only
	rOrecs    mem.Addr
	wOrecs    mem.Addr

	// slow holds the words slow attempts publish for lock holders. Host
	// words, not simulated ones: a store inside an attempt would be rolled
	// back with it.
	slow *slowSignals
}

// slowSignals are the host words slow attempts publish, a cache line each.
type slowSignals struct {
	// write is the signal the mode follows: the epoch snapshot of the most
	// recent slow attempt that reached a write barrier, published sparsely
	// (endSlow) so that in steady state holder and writers only load its
	// line.
	write paddedCounter
	// commit is the epoch snapshot of the latest committed slow attempt,
	// adaptive FG-TLE's evidence that speculation pays (adapt). FG-TLE(n)
	// never writes it.
	commit paddedCounter
}

type paddedCounter struct {
	n atomic.Uint64
	_ [7]uint64 // pad to a cache line to avoid false sharing
}

// Mode word values.
const (
	writersAdmitted uint64 = 0 // Figure 3 as printed
	readersOnly     uint64 = 1 // no r-orec is stamped; a slow-path write self-aborts (RW-TLE's rule)
)

// A lock holder admits slow-path writers while one has been seen within
// admitEpochs of its section — 64 sections of two bumps each, adaptive's
// Window default — and a slow-path writer republishes the signal only once
// it is publishEpochs stale.
const (
	admitEpochs   = 128
	publishEpochs = 64
)

// orecIndex maps an address to one of n ownership records by its cache
// line. It is the only place an address becomes an orec: FG-TLE(n), adaptive
// FG-TLE and ALE (the §2 comparison point) all hash through it.
func orecIndex(a mem.Addr, n uint64) uint64 { return wanghash.Hash(mem.LineOf(a), n) }

// newOrecTable allocates the metadata and the lock it serves. The epoch
// rides the lock's line (word 1 beside the lock word, as RW-TLE's write flag
// does): the holder's acquire, two bumps and release, and a reader's look at
// the lock and epoch snapshot before a slow attempt, then touch one line
// instead of two. Nothing subscribes the epoch, and a fast-path subscriber
// of the lock word is already doomed by the acquisition when the epoch moves.
func newOrecTable(m *mem.Memory, orecs int) (*spinlock.Lock, orecTable) {
	var o orecTable
	line := m.AllocLines(1)
	o.epochAddr = line + 1
	// Epoch starts at 1 so that zero-initialized orecs read as unowned
	// (orec < snapshot) from the very first transaction.
	m.Store(o.epochAddr, 1)
	o.admitAddr = m.AllocLines(1) // zero: a fresh method admits writers
	o.slow = &slowSignals{}
	o.rOrecs = m.AllocAligned(orecs)
	o.wOrecs = m.AllocAligned(orecs)
	return spinlock.NewAt(m, line), o
}

// CheckOrecs is the rule for the orec count of FG-TLE and ALE: a power of
// two (orecIndex masks with it) between 1 and 1<<20. Whoever takes a count
// from outside the program checks it here; NewFGTLE and NewALE panic on a
// count that fails.
func CheckOrecs(orecs int) error {
	if orecs < 1 || orecs > 1<<20 || orecs&(orecs-1) != 0 {
		return fmt.Errorf("orec count %d is not a power of two in [1, 2^20]", orecs)
	}
	return nil
}

// NewFGTLE returns an FG-TLE method over m with orecs ownership records per
// array; orecs must pass CheckOrecs.
func NewFGTLE(m *mem.Memory, orecs int, policy Policy) *FGTLEMethod {
	if err := CheckOrecs(orecs); err != nil {
		panic("core: FG-TLE " + err.Error())
	}
	lock, table := newOrecTable(m, orecs)
	return &FGTLEMethod{elision{m, lock, policy}, table, uint64(orecs)}
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
	seq   uint64 // epoch stamped into acquired orecs
	size  uint64 // orec count: fixed for FG-TLE(n), re-read under the lock by adaptive FG-TLE
	uniqR uint64 // distinct read orecs acquired so far (Figure 3's uniq_r_orecs)
	uniqW uint64 // distinct write orecs acquired so far

	// State of the slow attempt or lock section in flight (a thread runs one
	// at a time), kept here and not in the Context so that a Context stays
	// one pointer and is never boxed.
	localSeq uint64 // Figure 3's local_seq_number: the epoch before the slow attempt began
	slowSize uint64 // orec count of the slow attempt (adaptive reads it inside the transaction)
	lastR    uint64 // line+1 whose read barrier ran last in this attempt or section, 0 = none
	lastW    uint64 // line+1 whose write barrier ran last
	wrote    bool   // the slow attempt reached a write barrier
}

func newFGThread(e Exec, o orecTable, size uint64) fgtleThread {
	return fgtleThread{refinedThread: refinedThread{Exec: e}, orecTable: o, size: size, slowSize: size}
}

// beginSlow opens a slow-path attempt: it forgets the lines the previous
// attempt's barriers vouched for, and that it wrote, and takes Figure 3's
// local_seq_number before the transaction begins, so the epoch line itself
// is not subscribed and the lock release does not abort slow-path
// transactions.
func (t *fgtleThread) beginSlow() {
	t.lastR, t.lastW, t.wrote = 0, 0, false
	// The raw load is the algorithm: the snapshot must predate the
	// transaction so the epoch line stays out of the read set.
	t.localSeq = t.m.Load(t.epochAddr)
}

// runSlow is one instrumented slow-path attempt.
func (t *fgtleThread) runSlow(body func(Context)) htm.AbortReason {
	t.beginSlow()
	reason := t.Tx.Run(func(tx *htm.Tx) {
		body(fgSlowCtx{t})
		t.lazySubscribe(tx)
	})
	t.endSlow()
	return reason
}

// endSlow closes a slow-path attempt, committed or not: one that reached a
// write barrier tells the lock holders that slow-path writers exist. It runs
// after Tx.Run has returned (on real RTM a store inside the attempt would
// roll back with it) and stores only over a stale value, so a stream of
// writing attempts shares the signal's line read-only.
func (t *fgtleThread) endSlow() {
	if t.wrote && t.localSeq >= t.slow.write.n.Load()+publishEpochs {
		t.slow.write.n.Store(t.localSeq)
	}
}

// lockSection is the instrumented pessimistic path of Figure 3's else
// branches: bump the epoch, stamp orecs while executing, bump the epoch
// again to release all orecs at once. Between the opening bump and the
// body's first access it sets the mode the section runs in: readers only
// unless a slow attempt reached a write barrier in the last admitEpochs. A
// readers-only section starts with every r-orec counted as acquired —
// §4.2's saturation shortcut taken from the first read — so the read
// barrier stamps none.
func (t *fgtleThread) lockSection(body func(Context)) {
	m := t.m
	t.seq = m.Load(t.epochAddr) + 1
	m.Store(t.epochAddr, t.seq)
	mode := readersOnly
	if t.seq-t.slow.write.n.Load() <= admitEpochs {
		mode = writersAdmitted
	}
	if m.Load(t.admitAddr) != mode {
		// The store precedes the section's first unstamped read, so a
		// writing attempt that read the old mode cannot commit past it.
		m.Store(t.admitAddr, mode)
		t.Rec.ModeSwitch()
	}
	t.uniqR, t.uniqW = 0, 0
	if mode == readersOnly {
		t.uniqR = t.size
	}
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
// barrier never looked at the r-orec. The attempt's first write barrier
// reads the mode word, and only it does — a read-only attempt never
// subscribes the mode, so a flip aborts no reader — and turns the attempt
// away while the holder stamps no r-orecs.
func (c fgSlowCtx) Write(a mem.Addr, v uint64) {
	t := c.t
	tx := t.Tx
	if line := mem.LineOf(a) + 1; line != t.lastW {
		if !t.wrote {
			t.wrote = true
			if tx.Read(t.admitAddr) != writersAdmitted {
				tx.Abort()
			}
		}
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
