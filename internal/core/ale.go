package core

import (
	"fmt"

	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// ALEMethod models Amalgamated Lock Elision (Afek, Matveev, Moll, Shavit —
// DISC 2015), the concurrent work the paper contrasts with refined TLE in
// §2. Like refined TLE, ALE lets one pessimistic thread run alongside
// hardware transactions; the structural differences — both implemented
// here because they are exactly what the paper criticizes — are:
//
//  1. The roles are inverted: in ALE the *hardware* fast path carries the
//     instrumentation (every fast-path write stamps an ownership record),
//     paying overhead even when no thread is in software; the software
//     thread (the lock holder) runs with buffered writes.
//  2. The software thread publishes its write buffer with a small hardware
//     transaction at the end of its critical section; if that write-back
//     transaction cannot commit, a blocked flag halts ALL fast-path
//     transactions — even ones with no data conflict — for a pessimistic
//     write-back.
//
// Reconstruction notes (DESIGN.md §2): the software thread detects
// interference from concurrently committing fast-path transactions through
// the orecs its read barrier checks eagerly, with the simulator's line
// versions standing in for ALE's signature scheme to guarantee the
// software execution never acts on a torn view; the write-back transaction
// re-validates the entire read log by value, so validation and publication
// are one atomic step. Fast-path transactions subscribe to the software
// phase counter, so a beginning software section aborts in-flight fast
// transactions once (the analogue of ALE's synchronized phase start).
type ALEMethod struct {
	elision

	seqAddr     mem.Addr // software-phase counter (bumped by each sw section)
	blockedAddr mem.Addr // halts the fast path during pessimistic write-back
	orecs       mem.Addr
	norecs      uint64
}

// NewALE returns an ALE-style method over m with the given write-orec
// count, which must pass CheckOrecs.
func NewALE(m *mem.Memory, orecs int, policy Policy) *ALEMethod {
	if err := CheckOrecs(orecs); err != nil {
		panic("core: ALE " + err.Error())
	}
	a := &ALEMethod{elision: elision{m, spinlock.New(m), policy}, norecs: uint64(orecs)}
	line := m.AllocLines(1)
	a.seqAddr = line
	a.blockedAddr = line + 1
	m.Store(a.seqAddr, 1)
	a.orecs = m.AllocAligned(orecs)
	return a
}

// Name implements Method.
func (a *ALEMethod) Name() string { return fmt.Sprintf("ALE(%d)", a.norecs) }

// NewThread implements Method.
func (a *ALEMethod) NewThread() Thread {
	return &aleThread{Exec: a.exec(a.Name()), method: a, log: NewValueLog()}
}

// aleThread keeps a loop of its own: its fast path is the instrumented one
// and it never waits on the lock, so sharing refinedThread's loop would make
// that loop branch on ALE.
type aleThread struct {
	Exec
	method *ALEMethod

	// Software-section state.
	swSeq   uint64   // phase counter value of this section
	swClock uint64   // memory-clock snapshot at section begin
	log     ValueLog // reads by value and buffered writes of this section
}

func (t *aleThread) Atomic(body func(Context)) {
	t0 := t.Rec.Begin()
	a := t.method
	attempts := 0
	budget := t.Attempts.Budget()
	for attempts < budget {
		t.Rec.FastAttempt()
		reason := t.Tx.Run(func(tx *htm.Tx) {
			// Subscribe to the blocked flag (pessimistic write-back
			// halts us) and the phase counter (a beginning software
			// section invalidates our orec stamps).
			if tx.Read(a.blockedAddr) != 0 {
				tx.Abort()
			}
			seq := tx.Read(a.seqAddr)
			body(aleFastCtx{method: a, tx: tx, seq: seq})
		})
		if reason == htm.None {
			t.Rec.FastCommit(t0)
			t.Attempts.Record(attempts, true)
			return
		}
		t.FastAborted(reason)
		attempts++
	}
	t.Attempts.Record(attempts, false)
	t.software(body)
	t.Rec.LockCommit(t0)
}

// software runs the critical section as the single software thread, under
// the lock, with buffered writes, retrying until the write-back commits.
func (t *aleThread) software(body func(Context)) {
	start := t.AcquireLock()
	for !t.attemptSoftware(body) {
		t.Rec.STMAbort()
	}
	t.ReleaseLock(start)
}

type aleAbort struct{}

// attemptSoftware runs one buffered execution plus write-back; false means
// interference was detected and the section must re-run.
func (t *aleThread) attemptSoftware(body func(Context)) (ok bool) {
	a := t.method
	m := a.m
	// Begin a software phase: the bump aborts all in-flight fast-path
	// transactions (they subscribed to seqAddr), so every fast commit
	// that lands during this section stamps orecs with a value >= swSeq.
	t.swSeq = m.Load(a.seqAddr) + 1
	m.Store(a.seqAddr, t.swSeq)
	t.swClock = m.ClockLoad()
	t.log.Reset()
	t.Rec.STMStart()

	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(aleAbort); is {
				ok = false
				return
			}
			panic(r)
		}
	}()
	body(aleSwCtx{t})
	return t.writeBack()
}

// writeBack publishes the buffered writes: first with a small hardware
// transaction that revalidates the read log by value (atomically with the
// publication), then — after repeated failures — pessimistically behind
// the blocked flag, halting the whole fast path (the §2 criticism).
func (t *aleThread) writeBack() bool {
	a := t.method
	m := a.m
	if t.log.ReadOnly() {
		// Read-only section: reads were validated eagerly (orec +
		// version checks), so the section is consistent as of swClock.
		// ALE software sections are dual-booked: a lock run (the Op,
		// recorded by Atomic) plus the STM commit bucket of the
		// write-back, hence the extraCommit here and below.
		t.Rec.ExtraCommit(CommitSTMRO)
		return true
	}
	valid := true
	for i := 0; i < a.policy.AttemptBudget(); i++ {
		reason := t.Tx.Run(func(tx *htm.Tx) {
			if valid = t.log.ValidTx(tx); !valid {
				tx.Abort()
			}
			t.log.PublishTx(tx)
		})
		if reason == htm.None {
			t.Rec.ExtraCommit(CommitSTMHTM)
			return true
		}
		if !valid {
			return false // real interference: re-run the section
		}
	}
	// Halt the fast path and publish pessimistically.
	m.Store(a.blockedAddr, 1)
	defer m.Store(a.blockedAddr, 0)
	if !t.log.Valid(m) {
		return false
	}
	t.log.Publish(m)
	t.Rec.ExtraCommit(CommitSTMLock)
	return true
}

// orecOf is the orec of addr's cache line, by the mapping FG-TLE uses.
func (a *ALEMethod) orecOf(addr mem.Addr) mem.Addr {
	return a.orecs + mem.Addr(orecIndex(addr, a.norecs))
}

// aleFastCtx is ALE's hardware fast path: reads are raw, writes carry the
// always-on instrumentation (stamp the orec with the subscribed phase
// counter) — the overhead the paper's §2 calls out.
type aleFastCtx struct {
	method *ALEMethod
	tx     *htm.Tx
	seq    uint64
}

//rtle:speculative
func (c aleFastCtx) Read(a mem.Addr) uint64 { return c.tx.Read(a) }

//rtle:speculative
func (c aleFastCtx) Write(a mem.Addr, v uint64) {
	oa := c.method.orecOf(a)
	if c.tx.Read(oa) != c.seq {
		c.tx.Write(oa, c.seq)
	}
	c.tx.Write(a, v)
}

func (c aleFastCtx) InHTM() bool  { return true }
func (c aleFastCtx) Unsupported() { c.tx.Unsupported() }

// aleSwCtx is ALE's software path: buffered writes; reads check the orec
// eagerly (a fast-path commit during this section stamps it with >= swSeq)
// and the line version (no torn views), then log the value for the atomic
// write-back validation.
type aleSwCtx struct {
	t *aleThread
}

func (c aleSwCtx) Read(a mem.Addr) uint64 {
	t := c.t
	t.pacer.Tick()
	if v, ok := t.log.Written(a); ok {
		return v
	}
	m := t.method.m
	if m.Load(t.method.orecOf(a)) >= t.swSeq {
		panic(aleAbort{})
	}
	line := mem.LineOf(a)
	v := m.Load(a)
	if mw := m.MetaLoad(line); mem.Locked(mw) || mem.VersionOf(mw) > t.swClock {
		// A transaction committed to this line after the section
		// began: the view would be torn.
		panic(aleAbort{})
	}
	t.log.LogRead(a, v)
	return v
}

func (c aleSwCtx) Write(a mem.Addr, v uint64) {
	c.t.pacer.Tick()
	c.t.log.Buffer(a, v)
}

func (c aleSwCtx) InHTM() bool  { return false }
func (c aleSwCtx) Unsupported() {}
