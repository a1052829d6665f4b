package core

import (
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// LockMethod is the pessimistic baseline: every atomic block acquires the
// lock and runs uninstrumented. It anchors the paper's speedup
// normalization (every Fig. 5 curve is relative to single-threaded Lock).
type LockMethod struct{ elision }

// NewLock returns a lock-only method over m with a fresh lock, honouring
// the policy's concurrency virtualization (the lock path paces its accesses
// like every other path, keeping the baseline comparable); the speculation
// knobs are ignored.
func NewLock(m *mem.Memory, policy Policy) *LockMethod {
	return &LockMethod{elision{m, spinlock.New(m), policy}}
}

// Name implements Method.
func (l *LockMethod) Name() string { return "Lock" }

// NewThread implements Method. A lock thread never speculates, so it carries
// no transaction and no attempt policy.
func (l *LockMethod) NewThread() Thread {
	return &lockThread{Exec{
		Rec:   NewRecorder(l.policy, l.Name()),
		m:     l.m,
		lock:  l.lock,
		pacer: Pacer{Every: l.policy.HTM.InterleaveEvery},
	}}
}

type lockThread struct{ Exec }

// Atomic always takes the pessimistic path; the body runs uninstrumented.
func (t *lockThread) Atomic(body func(Context)) {
	t0 := t.Rec.Begin()
	start := t.AcquireLock()
	body(t.LockCtx())
	t.ReleaseLock(start)
	t.Rec.LockCommit(t0)
}
