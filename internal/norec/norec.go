// Package norec implements the NOrec software transactional memory of
// Dalessandro, Spear and Scott (PPoPP 2010), the software-only comparison
// point of the paper's evaluation (§6.2.2) and the substrate of the
// RHNOrec hybrid.
//
// NOrec keeps no ownership records: a single global sequence lock
// serializes writer commits, and readers detect interference by
// value-based validation — re-reading every location in the read set and
// comparing values — whenever the sequence lock changes. Read-only
// transactions commit without touching shared metadata.
//
// The software transaction itself is Tx: the read barrier, validation and
// the attempt/retry loop over a core.ValueLog, with the commit of a writing
// attempt left to the embedder. This package's thread commits by taking the
// sequence lock; internal/rhnorec embeds the same Tx behind its hardware
// paths and commits with a reduced hardware transaction instead.
package norec

import (
	"runtime"
	"time"

	"rtle/internal/core"
	"rtle/internal/mem"
)

// Method implements core.Method with the NOrec STM. All atomic blocks run
// as software transactions; there is no hardware component.
type Method struct {
	m       *mem.Memory
	seqAddr mem.Addr
	policy  core.Policy
}

// New returns a NOrec method over m. Only the policy's concurrency
// virtualization (InterleaveEvery) applies; software transactions retry
// until they commit regardless of the attempt budget.
func New(m *mem.Memory, policy core.Policy) *Method {
	return &Method{m: m, seqAddr: m.AllocLines(1), policy: policy}
}

// Name implements core.Method.
func (n *Method) Name() string { return "NOrec" }

// NewThread implements core.Method.
func (n *Method) NewThread() core.Thread {
	return &thread{NewTx(n.m, n.seqAddr, n.policy, n.Name())}
}

// thread is the software transaction plus NOrec's own commit.
type thread struct{ Tx }

// Atomic implements core.Thread: retry the software transaction until it
// commits.
func (t *thread) Atomic(body func(core.Context)) {
	t.Run(body, t.Rec.Begin(), t.commit)
}

// commit publishes buffered writes under the sequence lock.
func (t *thread) commit() core.CommitKind {
	for !t.m.CAS(t.seq, t.Snapshot, t.Snapshot+1) {
		t.Validate()
	}
	// The odd sequence number is NOrec's writer lock: fire the
	// lock-holder fault hook while every other commit is excluded.
	t.Rec.LockAcquired()
	t.Log.Publish(t.m)
	t.m.Store(t.seq, t.Snapshot+2)
	// Plain NOrec serializes every writer commit on the sequence lock;
	// report those in the "slow" software-commit bucket.
	return core.CommitSTMLock
}

// Tx is one thread's NOrec software transaction: everything but the commit
// of an attempt that wrote. It serves one goroutine.
type Tx struct {
	// Threads are allocated back to back and every section writes the
	// counters in Rec; a line of padding in front keeps them off the cache
	// line the previous thread's tail is written on (core.Exec has the same
	// pad for the same reason: without it RHNOrec, whose thread ends in a
	// flag it writes every section, read 8–10 % slower at two threads).
	_ [64]byte

	// Snapshot is the sequence-lock value the log was last known
	// consistent at; a commit may publish only while the lock still reads it.
	Snapshot uint64
	Rec      core.Recorder
	Log      core.ValueLog

	m     *mem.Memory
	seq   mem.Addr // global sequence lock / timestamp (even = no writer committing)
	pacer core.Pacer
}

// NewTx returns the software transaction of one thread of the named method
// (the name labels its observer shard) over m, serialized by the sequence
// lock at seq.
func NewTx(m *mem.Memory, seq mem.Addr, policy core.Policy, name string) Tx {
	return Tx{
		Rec:   core.NewRecorder(policy, name),
		Log:   core.NewValueLog(),
		m:     m,
		seq:   seq,
		pacer: core.Pacer{Every: policy.HTM.InterleaveEvery},
	}
}

// Stats implements core.Thread for the thread types that embed a Tx.
func (t *Tx) Stats() *core.Stats { return t.Rec.Stats() }

// stmAbort is the private panic value that unwinds an aborting software
// transaction attempt.
type stmAbort struct{}

// Abort unwinds the running attempt; Run re-executes the body. A commit
// that holds anything beyond the sequence lock releases it first.
func (t *Tx) Abort() { panic(stmAbort{}) }

// Run executes body as a software transaction, re-running it until an
// attempt commits, and retires the atomic block that began at t0 (the
// recorder's Begin value). An attempt that wrote nothing commits for free;
// otherwise commit must publish t.Log atomically at t.Snapshot —
// revalidating when the sequence lock has moved — and name its bucket, or
// Abort.
func (t *Tx) Run(body func(core.Context), t0 int64, commit func() core.CommitKind) {
	start := time.Now()
	for {
		if k, ok := t.attempt(body, commit); ok {
			t.Rec.STMDone(k, t0, time.Since(start).Nanoseconds())
			return
		}
		t.Rec.STMAbort()
	}
}

// attempt runs one software transaction attempt; ok false means validation
// failed and the caller must retry.
func (t *Tx) attempt(body func(core.Context), commit func() core.CommitKind) (k core.CommitKind, ok bool) {
	t.Rec.STMStart()
	t.Snapshot = t.waitEven()
	defer func() {
		t.Log.Reset()
		if r := recover(); r != nil {
			if _, is := r.(stmAbort); !is {
				panic(r)
			}
			ok = false
		}
	}()
	body(ctx{t})
	if t.Log.ReadOnly() {
		// Read-only transactions are already consistent at snapshot time.
		return core.CommitSTMRO, true
	}
	return commit(), true
}

// waitEven spins until the sequence lock is even (no writer committing)
// and returns its value.
func (t *Tx) waitEven() uint64 {
	for spins := 0; ; spins++ {
		s := t.m.Load(t.seq)
		if s&1 == 0 {
			return s
		}
		if spins%8 == 7 {
			runtime.Gosched()
		}
	}
}

// Revalidate re-reads the entire read set and compares values (NOrec's
// signature mechanism, counted for Fig. 10). It moves Snapshot to a value
// the log is consistent at, or reports false on a changed value.
func (t *Tx) Revalidate() bool {
	for {
		s := t.waitEven()
		t.Rec.Validation()
		if !t.Log.Valid(t.m) {
			return false
		}
		if t.m.Load(t.seq) == s {
			t.Snapshot = s
			return true
		}
	}
}

// Validate is Revalidate that aborts the attempt on a changed value.
func (t *Tx) Validate() {
	if !t.Revalidate() {
		t.Abort()
	}
}

// read performs a transactional load with the NOrec post-validation loop.
func (t *Tx) read(a mem.Addr) uint64 {
	t.pacer.Tick()
	if v, ok := t.Log.Written(a); ok {
		return v
	}
	v := t.m.Load(a)
	// Every software load checks the timestamp — under RHNOrec the
	// cache-line ping-pong §6.2.2 blames for the validation storms.
	for t.Snapshot != t.m.Load(t.seq) {
		t.Validate()
		v = t.m.Load(a)
	}
	t.Log.LogRead(a, v)
	return v
}

func (t *Tx) write(a mem.Addr, v uint64) {
	t.pacer.Tick()
	t.Log.Buffer(a, v)
}

// ctx adapts a Tx to core.Context.
type ctx struct{ t *Tx }

func (c ctx) Read(a mem.Addr) uint64     { return c.t.read(a) }
func (c ctx) Write(a mem.Addr, v uint64) { c.t.write(a, v) }
func (c ctx) InHTM() bool                { return false }

// Unsupported is a no-op: software transactions can run anything, which is
// why the HTM-unfriendly thread of §6.3 always lands on the software path.
func (c ctx) Unsupported() {}
