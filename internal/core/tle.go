package core

import (
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// TLEMethod is standard transactional lock elision (Fig. 1, left path):
// attempt the critical section in a hardware transaction with the lock
// subscribed; after Policy.Attempts failures acquire the lock and run the
// unmodified critical section. While the lock is held, every speculating
// thread waits — the limitation the refined variants remove. It is the
// shared loop (refinedThread) with neither hook set.
type TLEMethod struct{ elision }

// NewTLE returns a TLE method over m with a fresh lock.
func NewTLE(m *mem.Memory, policy Policy) *TLEMethod {
	return &TLEMethod{elision{m, spinlock.New(m), policy}}
}

// Name implements Method.
func (t *TLEMethod) Name() string { return "TLE" }

// NewThread implements Method.
func (t *TLEMethod) NewThread() Thread {
	return &refinedThread{Exec: t.exec(t.Name())}
}

// HLEMethod models Intel's Hardware Lock Elision mode (§1): elision
// implemented *in hardware* via instruction prefixes (XACQUIRE/XRELEASE),
// with the begin-fail-retry logic fixed by the microarchitecture — one
// implicit speculative attempt, then the real atomic acquisition. It is a
// useful floor for the software-controlled TLE policies: identical
// mechanism, no retry budget, no wait-until-free discipline. Here that is
// TLE's loop with a budget of one that does not look at the lock first: the
// elided XACQUIRE leaves the lock word unchanged but in the read set, and
// the hardware re-executes without elision when the attempt fails.
type HLEMethod struct{ elision }

// NewHLE returns an HLE-style method over m. Only the policy's HTM
// configuration applies; the retry policy is hardware-fixed (a single
// attempt).
func NewHLE(m *mem.Memory, policy Policy) *HLEMethod {
	return &HLEMethod{elision{m, spinlock.New(m), policy}}
}

// Name implements Method.
func (h *HLEMethod) Name() string { return "HLE" }

// NewThread implements Method.
func (h *HLEMethod) NewThread() Thread {
	t := &refinedThread{Exec: h.exec(h.Name()), eager: true}
	t.Attempts = StaticAttempts(1)
	return t
}
