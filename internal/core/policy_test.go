package core_test

import (
	"testing"

	"rtle/internal/core"
	"rtle/internal/mem"
)

func TestStaticAttempts(t *testing.T) {
	p := core.StaticAttempts(5)
	if p.Budget() != 5 {
		t.Fatalf("Budget = %d", p.Budget())
	}
	p.Record(4, false) // must be a no-op
	if p.Budget() != 5 {
		t.Fatal("static policy changed its budget")
	}
}

func TestAIMDDecreasesOnFallback(t *testing.T) {
	p := core.NewAIMDAttempts(1, 20)
	start := p.Budget()
	p.Record(start, false)
	if p.Budget() >= start {
		t.Fatalf("budget %d did not halve from %d on fallback", p.Budget(), start)
	}
	// Repeated fallbacks floor at Min.
	for i := 0; i < 10; i++ {
		p.Record(p.Budget(), false)
	}
	if p.Budget() != 1 {
		t.Fatalf("budget %d, want floor 1", p.Budget())
	}
}

func TestAIMDIncreasesWhenBudgetExhaustedButCommitted(t *testing.T) {
	p := core.NewAIMDAttempts(1, 20)
	start := p.Budget()
	p.Record(start-1, true) // used the whole budget, still elided
	if p.Budget() != start+1 {
		t.Fatalf("budget %d, want %d", p.Budget(), start+1)
	}
	// Easy commits (few attempts) leave the budget alone.
	b := p.Budget()
	p.Record(0, true)
	if p.Budget() != b {
		t.Fatal("budget moved on an easy commit")
	}
	// Ceiling respected.
	for i := 0; i < 100; i++ {
		p.Record(p.Budget()-1, true)
	}
	if p.Budget() != 20 {
		t.Fatalf("budget %d, want ceiling 20", p.Budget())
	}
}

func TestAIMDBoundsNormalization(t *testing.T) {
	p := core.NewAIMDAttempts(0, 0) // degenerate input
	if p.Budget() < 1 {
		t.Fatalf("budget %d below 1", p.Budget())
	}
	p2 := core.NewAIMDAttempts(10, 20)
	if p2.Budget() != 10 {
		t.Fatalf("budget %d, want clamped to min 10", p2.Budget())
	}
}

// TestAdaptiveAttemptsEndToEnd: under a persistently HTM-hostile workload
// the adaptive budget collapses toward 1, so far fewer fast attempts are
// wasted than under the static policy.
func TestAdaptiveAttemptsEndToEnd(t *testing.T) {
	run := func(adaptive bool) (attempts, ops uint64) {
		m := mem.New(1 << 16)
		meth := core.NewTLE(m, core.Policy{AdaptiveAttempts: adaptive})
		a := m.AllocLines(1)
		th := meth.NewThread()
		for i := 0; i < 200; i++ {
			th.Atomic(func(c core.Context) {
				c.Unsupported()
				c.Write(a, c.Read(a)+1)
			})
		}
		return th.Stats().FastAttempts, th.Stats().Ops
	}
	staticAttempts, staticOps := run(false)
	adaptiveAttempts, adaptiveOps := run(true)
	if staticOps != 200 || adaptiveOps != 200 {
		t.Fatalf("ops wrong: %d/%d", staticOps, adaptiveOps)
	}
	if staticAttempts != 200*core.DefaultAttempts {
		t.Fatalf("static attempts = %d, want %d", staticAttempts, 200*core.DefaultAttempts)
	}
	if adaptiveAttempts*2 >= staticAttempts {
		t.Fatalf("adaptive policy did not shed wasted attempts: %d vs %d", adaptiveAttempts, staticAttempts)
	}
}

// TestAdaptiveAttemptsRecoversOnFriendlyWorkload: after the hostile phase
// ends, the budget climbs back and elision resumes.
func TestAdaptiveAttemptsRecoversOnFriendlyWorkload(t *testing.T) {
	m := mem.New(1 << 16)
	// Make speculation flaky-but-viable so recovery needs budget > 1.
	meth := core.NewTLE(m, withSpurious(core.Policy{AdaptiveAttempts: true}, 0.1, 5))
	a := m.AllocLines(1)
	th := meth.NewThread()
	// Hostile phase: collapse the budget.
	for i := 0; i < 50; i++ {
		th.Atomic(func(c core.Context) { c.Unsupported() })
	}
	before := th.Stats().FastCommits
	// Friendly phase.
	for i := 0; i < 500; i++ {
		th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	}
	fastCommits := th.Stats().FastCommits - before
	if fastCommits < 300 {
		t.Fatalf("only %d/500 friendly ops elided; budget did not recover", fastCommits)
	}
}
