package core

import (
	"rtle/internal/htm"
	"rtle/internal/mem"
)

// The adaptation policy's bounds and window. The policy itself is this
// repository's design: the paper (§4.2.1) describes the mechanisms —
// resizing the orec array while holding the lock, and a mode flag that
// turns instrumentation off to recover plain TLE — and leaves the policy to
// future work.
const (
	adaptiveMinOrecs = 1    // the smallest live orec count (a power of two)
	adaptiveMaxOrecs = 8192 // the array's allocated size and the starting live count
	adaptiveWindow   = 64   // lock-path executions between adaptation decisions
)

// Adaptive mode values stored at modeAddr.
const (
	modeTLE uint64 = 0 // instrumentation off; slow path disabled
	modeFG  uint64 = 1 // FG-TLE behaviour
)

// AdaptiveFGTLE is FG-TLE with a self-tuning orec array (§4.2.1):
//
//   - The current orec count lives in simulated memory and is read inside
//     every slow-path transaction, so a resize (performed by a lock holder,
//     which is the only writer) aborts concurrent slow-path transactions
//     and the new size takes effect safely. Stale orec stamps need no
//     cleanup: they carry old epochs and read as unowned.
//   - A mode flag, also read inside every slow-path transaction, lets the
//     method fall back to plain TLE: the lock holder runs uninstrumented
//     and slow-path speculation is disabled.
//
// Policy (ours): every adaptiveWindow lock-path executions the holder
// inspects the mean number of orecs its critical sections acquired. If
// most orecs went unused the array shrinks (cheaper saturation
// optimization); if the critical sections saturated the array and
// slow-path transactions were aborting, it grows. If a full window passes
// with slow-path speculation enabled but no slow-path commits, the method
// switches to TLE mode; it probes back to FG-TLE mode a window later.
type AdaptiveFGTLE struct {
	elision
	orecTable

	sizeAddr mem.Addr
	modeAddr mem.Addr

	// Adaptation state, mutated only while holding the lock.
	windowRuns  uint64
	usageSum    uint64
	saturations uint64
	windowEpoch uint64 // the epoch the window opened at, which adapt compares slow.commit with
}

// NewAdaptiveFGTLE returns an adaptive FG-TLE method over m. The orec
// array is allocated at adaptiveMaxOrecs and the live size starts there.
func NewAdaptiveFGTLE(m *mem.Memory, policy Policy) *AdaptiveFGTLE {
	lock, table := newOrecTable(m, adaptiveMaxOrecs)
	a := &AdaptiveFGTLE{
		elision:     elision{m, lock, policy},
		orecTable:   table,
		windowEpoch: m.Load(table.epochAddr),
	}
	// One control line: FG-TLE's mode word, then the live size and the
	// TLE-mode flag, all written only under the lock.
	a.sizeAddr = a.admitAddr + 1
	a.modeAddr = a.admitAddr + 2
	m.Store(a.sizeAddr, adaptiveMaxOrecs)
	m.Store(a.modeAddr, modeFG)
	return a
}

// Name implements Method.
func (a *AdaptiveFGTLE) Name() string { return "FG-TLE(adaptive)" }

// CurrentOrecs returns the live orec-array size (racy probe, for tests and
// reports).
func (a *AdaptiveFGTLE) CurrentOrecs() int { return int(a.m.Load(a.sizeAddr)) }

// InTLEMode reports whether the method is currently running as plain TLE.
func (a *AdaptiveFGTLE) InTLEMode() bool { return a.m.Load(a.modeAddr) == modeTLE }

// NewThread implements Method.
func (a *AdaptiveFGTLE) NewThread() Thread {
	t := &adaptiveThread{
		fgtleThread: newFGThread(a.exec(a.Name()), a.orecTable, adaptiveMaxOrecs),
		method:      a,
	}
	t.slowAttempt = t.runSlow
	t.underLock = t.lockSection
	return t
}

// adaptiveThread is an FG-TLE thread whose orec count is live: slow-path
// transactions read it (and the mode) transactionally, the holder re-reads
// it under the lock.
type adaptiveThread struct {
	fgtleThread
	method *AdaptiveFGTLE
}

// runSlow is fgtleThread.runSlow with the mode flag and the live orec count
// read inside the transaction, subscribing to both. A commit stamps its
// epoch snapshot into the slow-commit word, which adapt reads; like
// endSlow's signal it stores only over an older value, so the commits of
// one section mostly just load the line.
func (t *adaptiveThread) runSlow(body func(Context)) htm.AbortReason {
	a := t.method
	t.beginSlow()
	reason := t.Tx.Run(func(tx *htm.Tx) {
		if tx.Read(a.modeAddr) != modeFG {
			tx.Abort() // TLE mode: no slow-path speculation
		}
		t.slowSize = tx.Read(a.sizeAddr)
		body(fgSlowCtx{&t.fgtleThread})
		t.lazySubscribe(tx)
	})
	t.endSlow()
	if reason == htm.None && t.slow.commit.n.Load() < t.localSeq {
		t.slow.commit.n.Store(t.localSeq)
	}
	return reason
}

func (t *adaptiveThread) lockSection(body func(Context)) {
	a := t.method
	t.adapt()
	t.size = t.m.Load(a.sizeAddr)
	if t.m.Load(a.modeAddr) == modeFG {
		t.fgtleThread.lockSection(body)
		a.usageSum += t.uniqW
		if t.m.Load(t.admitAddr) == writersAdmitted { // else uniqR is pinned at size: no r-orec was used
			a.usageSum += t.uniqR
		}
		if t.uniqR >= t.size && t.uniqW >= t.size {
			a.saturations++
		}
	} else {
		body(t.LockCtx()) // TLE mode: uninstrumented
	}
	a.windowRuns++
}

// adapt runs the adaptation policy. Called with the lock held, before the
// critical section, so resizes and mode switches are safe (§4.2.1).
func (t *adaptiveThread) adapt() {
	a := t.method
	if a.windowRuns < adaptiveWindow {
		return
	}
	m := t.m
	size := m.Load(a.sizeAddr)
	mode := m.Load(a.modeAddr)

	if mode == modeFG {
		switch {
		case a.slow.commit.n.Load() < a.windowEpoch:
			// A full window of lock-path executions without a
			// slow-path commit: instrumentation is pure overhead.
			m.Store(a.modeAddr, modeTLE)
			t.Rec.ModeSwitch()
		case a.windowRuns > 0 && a.usageSum/a.windowRuns*4 <= size && size > adaptiveMinOrecs:
			// Most orecs never used: shrink so the saturation
			// optimization kicks in sooner (the paper's hint).
			m.Store(a.sizeAddr, size/2)
			t.Rec.Resize()
		case a.saturations*2 >= a.windowRuns && size < adaptiveMaxOrecs:
			// Critical sections keep acquiring every orec while
			// speculation continues: refine the granularity.
			m.Store(a.sizeAddr, size*2)
			t.Rec.Resize()
		}
	} else {
		// Probe back into FG-TLE mode each window; if speculation
		// still yields nothing, adapt will switch away again.
		m.Store(a.modeAddr, modeFG)
		t.Rec.ModeSwitch()
	}

	a.windowRuns, a.usageSum, a.saturations = 0, 0, 0
	a.windowEpoch = m.Load(a.epochAddr)
}
