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

// TestRunCountsEachAttemptExactlyOnce is the double-counting regression
// test for Tx.Run's panic-recovery accounting: across commits, organic
// aborts, and injected aborts at every injection point, each attempt must
// increment Starts once and exactly one of Commits or Aborts[reason] —
// never zero, never both.
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
		// The core invariant, checked after every attempt: each start
		// produced exactly one outcome.
		if tx.Stats.Starts != tx.Stats.Commits+tx.Stats.TotalAborts() {
			t.Fatalf("after attempt %d: Starts=%d Commits=%d Aborts=%d — an attempt was double- or un-counted",
				i, tx.Stats.Starts, tx.Stats.Commits, tx.Stats.TotalAborts())
		}
	}

	if tx.Stats.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", tx.Stats.Commits)
	}
	wantAborts := map[AbortReason]uint64{Conflict: 1, Spurious: 1, Capacity: 1, Explicit: 1}
	for r, n := range wantAborts {
		if tx.Stats.Aborts[r] != n {
			t.Fatalf("Aborts[%v] = %d, want %d", r, tx.Stats.Aborts[r], n)
		}
	}
	// The injected subset excludes the organic Explicit abort.
	if tx.Stats.TotalInjected() != 3 {
		t.Fatalf("TotalInjected = %d, want 3 (the Explicit abort was organic)", tx.Stats.TotalInjected())
	}
	if tx.Stats.Injected[Explicit] != 0 {
		t.Fatal("organic Explicit abort booked as injected")
	}
}

// TestForeignPanicNotDoubleCounted pins down the accounting of the one path
// where an attempt has no outcome: a panic that is not a transaction abort
// propagates to the caller after Run discards speculative state, leaving
// Starts = Commits + Aborts + 1 for that attempt — it must not be booked as
// an abort (or worse, a commit).
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

	if tx.Stats.Starts != 1 || tx.Stats.Commits != 0 || tx.Stats.TotalAborts() != 0 {
		t.Fatalf("after foreign panic: Starts=%d Commits=%d Aborts=%d, want 1/0/0",
			tx.Stats.Starts, tx.Stats.Commits, tx.Stats.TotalAborts())
	}
	// The Tx must remain usable and count correctly afterwards.
	if r := tx.Run(func(tx *Tx) { tx.Write(a, 2) }); r != None {
		t.Fatalf("attempt after foreign panic aborted: %v", r)
	}
	if tx.Stats.Starts != 2 || tx.Stats.Commits != 1 {
		t.Fatalf("post-recovery counts: Starts=%d Commits=%d, want 2/1", tx.Stats.Starts, tx.Stats.Commits)
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
