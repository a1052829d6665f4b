package htm

import (
	"testing"

	"rtle/internal/mem"
)

// scriptedInjector replays a fixed per-attempt script: at attempt i it
// returns beginReasons[i] at begin, accessReasons[i] at the first access,
// and commitReasons[i] pre-commit (None or missing entries pass).
type scriptedInjector struct {
	attempt       int
	beginReasons  []AbortReason
	accessReasons []AbortReason
	commitReasons []AbortReason
	squeezeReads  int
}

func at(s []AbortReason, i int) AbortReason {
	if i < len(s) {
		return s[i]
	}
	return None
}

func (in *scriptedInjector) TxBegin() (int, int, AbortReason) {
	in.attempt++
	return in.squeezeReads, 0, at(in.beginReasons, in.attempt-1)
}

func (in *scriptedInjector) TxAccess(nth int, write bool) AbortReason {
	if nth == 1 {
		return at(in.accessReasons, in.attempt-1)
	}
	return None
}

func (in *scriptedInjector) TxPreCommit() AbortReason {
	return at(in.commitReasons, in.attempt-1)
}

// TestRunCountsEachAttemptExactlyOnce is the regression test for Tx.Run's
// panic-recovery accounting: across commits, organic aborts, and injected
// aborts at every injection point, each attempt must return its one outcome,
// be marked injected exactly when the injector forced it, and publish its
// writes exactly when it committed.
func TestRunCountsEachAttemptExactlyOnce(t *testing.T) {
	inj := &scriptedInjector{
		// Attempt scripts (None = pass that point):
		//  0: commit
		//  1: injected abort at begin (Conflict)
		//  2: injected abort at first access (Spurious)
		//  3: injected abort pre-commit (Capacity)
		//  4: organic explicit abort (body calls Abort)
		//  5: commit
		beginReasons:  []AbortReason{None, Conflict, None, None, None, None},
		accessReasons: []AbortReason{None, None, Spurious, None, None, None},
		commitReasons: []AbortReason{None, None, None, Capacity, None, None},
	}
	m := mem.New(256)
	a := m.Alloc(1)
	tx := NewTx(m, Config{NewInjector: func() Injector { return inj }})

	wantReasons := []AbortReason{None, Conflict, Spurious, Capacity, Explicit, None}
	wantInjected := []bool{false, true, true, true, false, false}
	for i, want := range wantReasons {
		got := tx.Run(func(tx *Tx) {
			v := tx.Read(a)
			if i == 4 {
				tx.Abort()
			}
			tx.Write(a, v+1)
		})
		if got != want {
			t.Fatalf("attempt %d: reason %v, want %v", i, got, want)
		}
		// The injected mark follows the attempt that just finished; the
		// organic Explicit abort is not booked as injected.
		if got := tx.LastAbortInjected(); got != wantInjected[i] {
			t.Fatalf("attempt %d: LastAbortInjected = %v, want %v", i, got, wantInjected[i])
		}
	}
	// Each attempt adds one on commit: the two commits, and nothing else,
	// reached the heap.
	if got := m.Load(a); got != 2 {
		t.Fatalf("heap word = %d, want 2 (one per commit)", got)
	}
}

// TestForeignPanicNotDoubleCounted pins down the one path where an attempt
// has no outcome: a panic that is not a transaction abort propagates to the
// caller after Run discards speculative state — it must not be booked as an
// injected abort, nor publish its writes as a commit would.
func TestForeignPanicNotDoubleCounted(t *testing.T) {
	m := mem.New(256)
	a := m.Alloc(1)
	tx := NewTx(m, Config{})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("foreign panic swallowed")
			}
		}()
		tx.Run(func(tx *Tx) {
			tx.Write(a, 1)
			panic("application bug")
		})
	}()

	if tx.Active() || tx.LastAbortInjected() || m.Load(a) != 0 {
		t.Fatalf("after foreign panic: active=%v injected=%v word=%d, want false/false/0",
			tx.Active(), tx.LastAbortInjected(), m.Load(a))
	}
	// The Tx must remain usable afterwards.
	if r := tx.Run(func(tx *Tx) { tx.Write(a, 2) }); r != None {
		t.Fatalf("attempt after foreign panic aborted: %v", r)
	}
	if got := m.Load(a); got != 2 {
		t.Fatalf("heap word = %d, want 2 (panicking attempt's write leaked or commit lost)", got)
	}
}

// TestSqueezedLimitsResetPerAttempt verifies a squeeze applies only to the
// attempt it was injected into: the next attempt runs at configured limits.
func TestSqueezedLimitsResetPerAttempt(t *testing.T) {
	inj := &scriptedInjector{squeezeReads: 2}
	m := mem.New(1 << 10)
	base := m.AllocLines(4)
	tx := NewTx(m, Config{ReadLines: 8, NewInjector: func() Injector { return inj }})

	readAll := func(tx *Tx) {
		for j := 0; j < 4; j++ {
			tx.Read(base + mem.Addr(j*mem.WordsPerLine))
		}
	}
	if r := tx.Run(readAll); r != Capacity {
		t.Fatalf("squeezed attempt: %v, want Capacity", r)
	}
	if !tx.LastAbortInjected() {
		t.Fatal("squeeze-caused capacity abort not marked injected")
	}
	inj.squeezeReads = 0 // stop squeezing
	if r := tx.Run(readAll); r != None {
		t.Fatalf("unsqueezed attempt: %v, want commit", r)
	}
	if tx.LastAbortInjected() {
		t.Fatal("LastAbortInjected sticky across a committed attempt")
	}
}

// TestSqueezedCapacityRepeatedLines: at a read capacity squeezed to the
// lines already held, re-reading them (the last one or an earlier one)
// costs nothing, while one new line is a Capacity abort booked to the
// injector.
func TestSqueezedCapacityRepeatedLines(t *testing.T) {
	inj := &scriptedInjector{squeezeReads: 2}
	m := mem.New(1 << 10)
	base := m.AllocLines(3)
	line := func(i int) mem.Addr { return base + mem.Addr(i*mem.WordsPerLine) }
	tx := NewTx(m, Config{ReadLines: 8, NewInjector: func() Injector { return inj }})

	repeats := func(tx *Tx) {
		tx.Read(line(0))
		tx.Read(line(1))
		tx.Read(line(1) + 1) // the last line again
		tx.Read(line(0) + 1) // an earlier line again
		tx.Read(line(0))
	}
	if r := tx.Run(repeats); r != None {
		t.Fatalf("repeats within a squeezed capacity: %v, want commit", r)
	}
	r := tx.Run(func(tx *Tx) {
		repeats(tx)
		tx.Read(line(2))
		t.Error("a third line fit a read capacity squeezed to two")
	})
	if r != Capacity || !tx.LastAbortInjected() {
		t.Fatalf("new line at a squeezed capacity: %v (injected=%v), want injected Capacity", r, tx.LastAbortInjected())
	}
}
