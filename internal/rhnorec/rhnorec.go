// Package rhnorec implements the Reduced Hardware NOrec hybrid TM of
// Matveev and Shavit (TRANSACT 2014), the hybrid comparison point of the
// paper's evaluation (§6.2.2). It follows the variant the paper compares
// against ([18], not the later ASPLOS'15 redesign):
//
//   - Transactions first attempt to run entirely in HTM. If no software
//     transaction is running they commit without touching shared metadata
//     (HTMFast); otherwise they must increment the global timestamp at
//     commit so software readers revalidate (HTMSlow) — the increment that
//     §6.2.2 identifies as the scalability bottleneck.
//   - After the fast-path budget is exhausted the transaction switches to a
//     NOrec-style software path with value-based validation. Its commit is
//     attempted as a small ("reduced") hardware transaction that bumps the
//     timestamp and publishes the write set (STMFastCommit); if that keeps
//     failing, a global fallback lock halts all speculation and the commit
//     happens pessimistically (STMSlowCommit).
package rhnorec

import (
	"runtime"
	"time"

	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// Method implements core.Method with the RHNOrec hybrid TM.
type Method struct {
	m        *mem.Memory
	policy   core.Policy
	seqAddr  mem.Addr // global timestamp / sequence lock (even = quiescent)
	swAddr   mem.Addr // count of running software transactions
	fallback *spinlock.Lock
}

// New returns an RHNOrec method over m. policy.Attempts bounds both the
// all-hardware path and the reduced commit transaction (the paper uses 5
// for each, §6.2.2).
func New(m *mem.Memory, policy core.Policy) *Method {
	line := m.AllocLines(1)
	r := &Method{
		m:       m,
		policy:  policy,
		seqAddr: line,
		swAddr:  line + 1,
	}
	r.fallback = spinlock.New(m)
	return r
}

// Name implements core.Method.
func (r *Method) Name() string { return "RHNOrec" }

func (r *Method) attempts() int {
	if r.policy.Attempts > 0 {
		return r.policy.Attempts
	}
	return core.DefaultAttempts
}

// NewThread implements core.Method.
func (r *Method) NewThread() core.Thread {
	return &thread{
		method:    r,
		tx:        htm.NewTx(r.m, r.policy.HTM),
		writeVals: make(map[mem.Addr]uint64, 64),
		pacer:     &core.Pacer{Every: r.policy.HTM.InterleaveEvery},
		rec:       core.NewRecorder(r.policy, r.Name()),
	}
}

type stmAbort struct{}

type thread struct {
	method *Method
	tx     *htm.Tx
	pacer  *core.Pacer
	rec    core.Recorder

	// Software-transaction state.
	snapshot   uint64
	readAddrs  []mem.Addr
	readVals   []uint64
	writeVals  map[mem.Addr]uint64
	writeOrder []mem.Addr

	bumped    bool            // current HTM fast attempt had to bump the timestamp
	committed core.CommitKind // bucket of the last successful software commit
}

func (t *thread) Stats() *core.Stats { return t.rec.Stats() }

// Atomic implements core.Thread.
func (t *thread) Atomic(body func(core.Context)) {
	t0 := t.rec.Begin()
	r := t.method
	for i := 0; i < r.attempts(); i++ {
		t.bumped = false
		reason := t.tx.Run(func(tx *htm.Tx) {
			// Subscribe to the fallback lock: a pessimistic commit
			// halts all hardware speculation.
			if tx.Read(r.fallback.Addr()) != 0 {
				tx.Abort()
			}
			swRunning := tx.Read(r.swAddr) != 0
			body(hwCtx{tx})
			if swRunning {
				// Software transactions are running: bump the
				// timestamp so they revalidate against our
				// writes. This is the contended increment of
				// Figs. 8–10. Even read-only transactions pay
				// it: without instrumentation the fast path
				// cannot know it performed no writes (§6.3).
				s := tx.Read(r.seqAddr)
				if s&1 != 0 {
					tx.Abort()
				}
				tx.Write(r.seqAddr, s+2)
				t.bumped = true
			}
		})
		// Which path a hardware attempt ran on is known only once it ends
		// (whether it had to bump the timestamp), so the attempt is booked
		// here, right before its outcome: per path, commits + aborts never
		// exceed attempts, also in a concurrent snapshot.
		if reason == htm.None && t.bumped {
			t.rec.SlowAttempt()
			t.rec.SlowCommit(t0) // HTMSlow in Fig. 9
			return
		}
		t.rec.FastAttempt()
		if reason == htm.None {
			t.rec.FastCommit(t0) // HTMFast in Fig. 9
			return
		}
		t.rec.FastAbort(reason, false, t.tx.LastAbortInjected())
	}
	t.software(body, t0)
}

// software runs the NOrec-style software path until it commits.
func (t *thread) software(body func(core.Context), t0 int64) {
	start := time.Now()
	r := t.method
	r.m.FetchAdd(r.swAddr, 1)
	for !t.attempt(body) {
		t.rec.STMAbort()
	}
	r.m.FetchAdd(r.swAddr, ^uint64(0)) // decrement
	t.rec.STMDone(t.committed, t0, time.Since(start).Nanoseconds())
}

func (t *thread) attempt(body func(core.Context)) (ok bool) {
	t.rec.STMStart()
	t.snapshot = t.waitEven()
	defer func() {
		t.reset()
		if rec := recover(); rec != nil {
			if _, is := rec.(stmAbort); is {
				ok = false
				return
			}
			panic(rec)
		}
	}()
	body(swCtx{t})
	t.commit()
	return true
}

func (t *thread) reset() {
	t.readAddrs = t.readAddrs[:0]
	t.readVals = t.readVals[:0]
	clear(t.writeVals)
	t.writeOrder = t.writeOrder[:0]
}

func (t *thread) waitEven() uint64 {
	m := t.method.m
	for spins := 0; ; spins++ {
		s := m.Load(t.method.seqAddr)
		if s&1 == 0 {
			return s
		}
		if spins%8 == 7 {
			runtime.Gosched()
		}
	}
}

// validate is NOrec value-based validation (counted for Fig. 10).
func (t *thread) validate() uint64 {
	m := t.method.m
	for {
		s := t.waitEven()
		t.rec.Validation()
		for i, a := range t.readAddrs {
			if m.Load(a) != t.readVals[i] {
				panic(stmAbort{})
			}
		}
		if m.Load(t.method.seqAddr) == s {
			return s
		}
	}
}

func (t *thread) read(a mem.Addr) uint64 {
	t.pacer.Tick()
	if len(t.writeVals) > 0 {
		if v, ok := t.writeVals[a]; ok {
			return v
		}
	}
	m := t.method.m
	v := m.Load(a)
	// Every software load checks the timestamp — the cache-line
	// ping-pong §6.2.2 blames for the validation storms.
	for t.snapshot != m.Load(t.method.seqAddr) {
		t.snapshot = t.validate()
		v = m.Load(a)
	}
	t.readAddrs = append(t.readAddrs, a)
	t.readVals = append(t.readVals, v)
	return v
}

func (t *thread) write(a mem.Addr, v uint64) {
	t.pacer.Tick()
	if _, ok := t.writeVals[a]; !ok {
		t.writeOrder = append(t.writeOrder, a)
	}
	t.writeVals[a] = v
}

// commit publishes the software transaction: first with the reduced
// hardware transaction, then under the fallback lock.
func (t *thread) commit() {
	if len(t.writeVals) == 0 {
		t.committed = core.CommitSTMRO
		return
	}
	r := t.method
	m := r.m
	for i := 0; i < r.attempts(); i++ {
		seqChanged := false
		reason := t.tx.Run(func(tx *htm.Tx) {
			if tx.Read(r.fallback.Addr()) != 0 {
				tx.Abort()
			}
			s := tx.Read(r.seqAddr)
			if s != t.snapshot {
				// The timestamp moved since our last
				// validation: revalidate outside and retry.
				seqChanged = true
				tx.Abort()
			}
			for _, a := range t.writeOrder {
				tx.Write(a, t.writeVals[a])
			}
			tx.Write(r.seqAddr, s+2)
		})
		if reason == htm.None {
			t.committed = core.CommitSTMHTM
			return
		}
		if seqChanged {
			t.snapshot = t.validate() // aborts on value mismatch
		}
	}
	// Pessimistic commit: halt all speculation with the fallback lock.
	r.fallback.Acquire()
	t.rec.LockAcquired()
	for !m.CAS(r.seqAddr, t.snapshot, t.snapshot+1) {
		t.snapshot = t.validateUnderLock()
	}
	for _, a := range t.writeOrder {
		m.Store(a, t.writeVals[a])
	}
	m.Store(r.seqAddr, t.snapshot+2)
	r.fallback.Release()
	t.committed = core.CommitSTMLock
}

// validateUnderLock revalidates while holding the fallback lock; on a
// value mismatch it must release the lock before aborting the attempt.
func (t *thread) validateUnderLock() uint64 {
	m := t.method.m
	for {
		s := t.waitEven()
		t.rec.Validation()
		for i, a := range t.readAddrs {
			if m.Load(a) != t.readVals[i] {
				t.method.fallback.Release()
				panic(stmAbort{})
			}
		}
		if m.Load(t.method.seqAddr) == s {
			return s
		}
	}
}

// hwCtx is the all-hardware path (uninstrumented, as RHNOrec advertises).
type hwCtx struct {
	tx *htm.Tx
}

//rtle:speculative
func (c hwCtx) Read(a mem.Addr) uint64 { return c.tx.Read(a) }

//rtle:speculative
func (c hwCtx) Write(a mem.Addr, v uint64) { c.tx.Write(a, v) }
func (c hwCtx) InHTM() bool                { return true }
func (c hwCtx) Unsupported()               { c.tx.Unsupported() }

// swCtx is the software path.
type swCtx struct {
	t *thread
}

func (c swCtx) Read(a mem.Addr) uint64     { return c.t.read(a) }
func (c swCtx) Write(a mem.Addr, v uint64) { c.t.write(a, v) }
func (c swCtx) InHTM() bool                { return false }
func (c swCtx) Unsupported()               {}
