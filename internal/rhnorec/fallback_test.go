package rhnorec

import (
	"testing"

	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/mem"
)

// htmUnusable returns p with a fault plan that aborts every transactional
// access, so no hardware transaction that touches memory commits.
func htmUnusable(p core.Policy) core.Policy {
	fault.NewDirector(fault.Plan{AccessProb: 1}).Configure(&p)
	return p
}

// TestFallbackLockCommit: with HTM made unusable entirely, every
// operation must flow fast-path → software path → reduced-commit attempts
// → global fallback lock, and still be correct.
func TestFallbackLockCommit(t *testing.T) {
	m := mem.New(1 << 16)
	meth := New(m, htmUnusable(core.Policy{Attempts: 2}))
	a := m.AllocLines(1)
	th := meth.NewThread()
	for i := 0; i < 25; i++ {
		th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	}
	if m.Load(a) != 25 {
		t.Fatalf("counter = %d, want 25", m.Load(a))
	}
	s := th.Stats()
	if s.STMCommitsLock != 25 {
		t.Fatalf("STMCommitsLock = %d, want 25 (all commits via fallback lock)", s.STMCommitsLock)
	}
	if s.STMCommitsHTM != 0 || s.FastCommits != 0 {
		t.Fatalf("unexpected HTM success with 100%% fault injection: %+v", *s)
	}
	// The fallback lock must be released afterwards.
	if meth.fallback.Held() {
		t.Fatal("fallback lock leaked")
	}
	// And the sequence lock must be quiescent (even).
	if m.Load(meth.seqAddr)%2 != 0 {
		t.Fatal("sequence lock left odd")
	}
}

// TestSwCountReturnsToZero: the running-software-transaction counter must
// drain to zero after mixed traffic, or future fast commits would pay the
// timestamp bump forever.
func TestSwCountReturnsToZero(t *testing.T) {
	m := mem.New(1 << 16)
	meth := New(m, core.Policy{Attempts: 1})
	a := m.AllocLines(1)
	th := meth.NewThread()
	for i := 0; i < 30; i++ {
		unfriendly := i%3 == 0
		th.Atomic(func(c core.Context) {
			if unfriendly {
				c.Unsupported()
			}
			c.Write(a, c.Read(a)+1)
		})
	}
	if got := m.Load(meth.swAddr); got != 0 {
		t.Fatalf("software-transaction count leaked: %d", got)
	}
	// With no software transactions running, a fresh op must commit
	// HTMFast (no timestamp bump).
	seqBefore := m.Load(meth.seqAddr)
	th2 := meth.NewThread()
	th2.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	if th2.Stats().FastCommits != 1 {
		t.Fatalf("expected an HTMFast commit, got %+v", *th2.Stats())
	}
	if m.Load(meth.seqAddr) != seqBefore {
		t.Fatal("timestamp bumped with no software transactions running")
	}
}

// TestValidationUnderFallbackLockReleasesOnAbort: a value mismatch during
// the under-lock validation must release the fallback lock before the
// retry, or the whole system wedges. The interference is a second
// software transaction's fallback-lock commit (with HTM disabled
// entirely, every commit takes that path) — note that interference must
// be transactional: unlike refined TLE, a hybrid TM gives no guarantees
// against plain concurrent stores (paper §1).
func TestValidationUnderFallbackLockReleasesOnAbort(t *testing.T) {
	m := mem.New(1 << 16)
	meth := New(m, htmUnusable(core.Policy{Attempts: 1}))
	a := m.AllocLines(1)
	sw := meth.NewThread()
	other := meth.NewThread()
	first := true
	sw.Atomic(func(c core.Context) {
		v := c.Read(a)
		if first {
			first = false
			// A competing software transaction commits via the
			// fallback lock, bumping the timestamp.
			other.Atomic(func(c2 core.Context) { c2.Write(a, c2.Read(a)+10) })
		}
		c.Write(a, v+1)
	})
	if got := m.Load(a); got != 11 {
		t.Fatalf("final = %d, want 11 (retry must observe the interference)", got)
	}
	if meth.fallback.Held() {
		t.Fatal("fallback lock leaked after validation abort")
	}
	if sw.Stats().STMAborts == 0 {
		t.Fatal("no software abort recorded")
	}
	if other.Stats().STMCommitsLock != 1 {
		t.Fatalf("interferer commits: %+v", *other.Stats())
	}
}
