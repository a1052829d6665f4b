package framework

import (
	"testing"
)

// summarySrc is a package exercising the summaries: a gated helper, a
// constructor, and functions whose bodies take or drop an exclusive gate
// on a sync.RWMutex named gate (directly or inside a closure), beside one
// that only takes it shared.
const summarySrc = `package p

import "sync"

type shard struct{ gate sync.RWMutex }

//rtle:gated
func appendLocked() {}

//rtle:init
func newShard() *shard { return &shard{} }

func lockSpans(s *shard) { s.gate.Lock() }

func unlockSpans(s *shard) { func() { s.gate.Unlock() }() }

func both(s *shard) {
	s.gate.Lock()
	appendLocked()
	s.gate.Unlock()
}

func shared(s *shard) {
	s.gate.RLock()
	s.gate.RUnlock()
}
`

// TestSummaries checks what loggate reads off a callee: its declared marks
// and the exclusive-gate effects of its own body, in source order.
func TestSummaries(t *testing.T) {
	pkg := checkSource(t, "p.go", summarySrc)
	var sums *Summaries
	fake := &Analyzer{
		Name: "fake",
		Run: func(pass *Pass) error {
			sums = NewSummaries(pass)
			return nil
		},
	}
	if _, err := RunAnalyzer(fake, pkg); err != nil {
		t.Fatalf("RunAnalyzer: %v", err)
	}
	want := []struct {
		name   string
		marks  Marks
		direct Effects
	}{
		{"appendLocked", MarkGated, 0},
		{"newShard", MarkInit, 0},
		{"lockSpans", 0, EffectExclusiveGate},
		{"unlockSpans", 0, EffectExclusiveUngate},
		{"both", 0, EffectExclusiveGate | EffectExclusiveUngate},
		{"shared", 0, 0},
	}
	got := sums.Functions()
	if len(got) != len(want) {
		t.Fatalf("%d summaries, want %d", len(got), len(want))
	}
	for i, w := range want {
		s := got[i]
		if s.Fn.Name() != w.name || s.Marks != w.marks || s.Direct != w.direct {
			t.Errorf("summary %d = %s marks %b direct %b, want %s marks %b direct %b",
				i, s.Fn.Name(), s.Marks, s.Direct, w.name, w.marks, w.direct)
		}
		if sums.Summary(s.Fn) != s {
			t.Errorf("Summary(%s) does not return its own summary", w.name)
		}
	}
}
