package htm

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"rtle/internal/mem"
)

func newHeap() *mem.Memory { return mem.New(1 << 14) }

func TestCommitPublishesWrites(t *testing.T) {
	m := newHeap()
	a := m.Alloc(2)
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) {
		tx.Write(a, 11)
		tx.Write(a+1, 22)
	})
	if reason != None {
		t.Fatalf("commit failed: %v", reason)
	}
	if m.Load(a) != 11 || m.Load(a+1) != 22 {
		t.Fatalf("writes not published: %d, %d", m.Load(a), m.Load(a+1))
	}
}

func TestWritesInvisibleBeforeCommit(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	tx := NewTx(m, Config{})
	tx.Run(func(tx *Tx) {
		tx.Write(a, 7)
		if m.Load(a) != 0 {
			t.Error("speculative write visible to a plain load before commit")
		}
	})
}

func TestAbortDiscardsWrites(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	m.Store(a, 1)
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) {
		tx.Write(a, 99)
		tx.Abort()
	})
	if reason != Explicit {
		t.Fatalf("reason = %v, want explicit", reason)
	}
	if m.Load(a) != 1 {
		t.Fatalf("aborted write leaked: %d", m.Load(a))
	}
}

func TestReadOwnWrite(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	m.Store(a, 5)
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) {
		if got := tx.Read(a); got != 5 {
			t.Errorf("pre-write read = %d, want 5", got)
		}
		tx.Write(a, 6)
		if got := tx.Read(a); got != 6 {
			t.Errorf("read-own-write = %d, want 6", got)
		}
	})
	if reason != None {
		t.Fatalf("commit failed: %v", reason)
	}
}

// TestReadUnwrittenWordOfWrittenLine: a word of a written line that the
// attempt did not write reads from memory, not from the line's buffer.
func TestReadUnwrittenWordOfWrittenLine(t *testing.T) {
	m := newHeap()
	a := m.AllocLines(1)
	m.Store(a+1, 5)
	var got uint64
	if r := NewTx(m, Config{}).Run(func(tx *Tx) { tx.Write(a, 7); got = tx.Read(a + 1) }); r != None || got != 5 {
		t.Fatalf("read of an unwritten word of a written line = %d (%v), want 5", got, r)
	}
}

// TestReadAfterWriteOnReadLine: on a line already in the read set a
// buffered word wins and its unwritten neighbour still comes from memory.
func TestReadAfterWriteOnReadLine(t *testing.T) {
	m := newHeap()
	a := m.AllocLines(1)
	m.Store(a, 5)
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) {
		tx.Read(a)
		tx.Write(a+1, 7)
		if got := tx.Read(a + 1); got != 7 {
			t.Errorf("read of a buffered word on a read line = %d, want 7", got)
		}
		if got := tx.Read(a); got != 5 {
			t.Errorf("read of its unwritten neighbour = %d, want 5", got)
		}
		if tx.ReadSetLines() != 1 {
			t.Errorf("read set = %d lines, want 1", tx.ReadSetLines())
		}
	})
	if reason != None {
		t.Fatalf("commit failed: %v", reason)
	}
}

// TestRepeatLineReadStillValidates: a line already in the read set is
// version-checked on every read — a plain store to it between two reads
// dooms the second one on the spot, not at commit.
func TestRepeatLineReadStillValidates(t *testing.T) {
	m := newHeap()
	a := m.AllocLines(1)
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) {
		tx.Read(a)
		m.Store(a+1, 42)
		tx.Read(a)
		t.Error("repeat read of a line stored to since the snapshot did not abort")
	})
	if reason != Conflict {
		t.Fatalf("reason = %v, want conflict", reason)
	}
}

func TestHeapTooLargeForSetKeys(t *testing.T) {
	checkAddressable(1<<32 - 1) // the largest heap whose addr+1 fits 32 bits
	defer func() {
		if recover() == nil {
			t.Fatal("a 2^32-word heap, whose last address aliases key 0, was accepted")
		}
	}()
	checkAddressable(1 << 32)
}

func TestPlainStoreDoomsReader(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) {
		tx.Read(a)
		// A non-transactional store by "another thread" — strong
		// atomicity must doom this transaction.
		m.Store(a, 42)
		tx.Write(m.Alloc(1), 1) // force a real commit (not read-only)
	})
	if reason != Conflict {
		t.Fatalf("reason = %v, want conflict", reason)
	}
}

func TestOpacityReadAfterExternalStoreAborts(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	b := m.AllocLines(1) // separate line
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) {
		tx.Read(a)
		m.Store(b, 9) // external store after our snapshot
		// Reading b now must abort: its version is newer than our
		// snapshot, so we can never be consistent with a.
		tx.Read(b)
		t.Error("read of a newer line did not abort (opacity violated)")
	})
	if reason != Conflict {
		t.Fatalf("reason = %v, want conflict", reason)
	}
}

func TestReadOnlyCommitsDespiteLaterStores(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	b := m.AllocLines(1)
	m.Store(a, 1)
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) {
		tx.Read(a)
		m.Store(b, 5) // a line we never read — must not hurt us
	})
	if reason != None {
		t.Fatalf("read-only transaction aborted on unrelated store: %v", reason)
	}
}

func TestReadCapacityAbort(t *testing.T) {
	m := newHeap()
	base := m.AllocLines(10)
	tx := NewTx(m, Config{ReadLines: 4})
	reason := tx.Run(func(tx *Tx) {
		for i := 0; i < 10; i++ {
			tx.Read(base + mem.Addr(i*mem.WordsPerLine))
		}
	})
	if reason != Capacity {
		t.Fatalf("reason = %v, want capacity", reason)
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	m := newHeap()
	base := m.AllocLines(10)
	tx := NewTx(m, Config{WriteLines: 4})
	reason := tx.Run(func(tx *Tx) {
		for i := 0; i < 10; i++ {
			tx.Write(base+mem.Addr(i*mem.WordsPerLine), 1)
		}
	})
	if reason != Capacity {
		t.Fatalf("reason = %v, want capacity", reason)
	}
}

func TestSameLineDoesNotConsumeCapacity(t *testing.T) {
	m := newHeap()
	a := m.AllocLines(1)
	tx := NewTx(m, Config{ReadLines: 1, WriteLines: 1})
	reason := tx.Run(func(tx *Tx) {
		for i := 0; i < mem.WordsPerLine; i++ {
			tx.Read(a + mem.Addr(i))
			tx.Write(a+mem.Addr(i), uint64(i))
		}
	})
	if reason != None {
		t.Fatalf("same-line accesses overflowed capacity: %v", reason)
	}
}

func TestUnsupportedAborts(t *testing.T) {
	m := newHeap()
	tx := NewTx(m, Config{})
	reason := tx.Run(func(tx *Tx) { tx.Unsupported() })
	if reason != Unsupported {
		t.Fatalf("reason = %v, want unsupported", reason)
	}
}

func TestSpuriousInjection(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	in := &scriptedInjector{accessReasons: []AbortReason{Spurious}}
	tx := NewTx(m, Config{NewInjector: func() Injector { return in }})
	reason := tx.Run(func(tx *Tx) { tx.Read(a) })
	if reason != Spurious {
		t.Fatalf("reason = %v, want spurious", reason)
	}
}

func TestNoSpuriousWhenDisabled(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	tx := NewTx(m, Config{})
	for i := 0; i < 100; i++ {
		if reason := tx.Run(func(tx *Tx) { tx.Read(a) }); reason != None {
			t.Fatalf("unexpected abort: %v", reason)
		}
	}
}

// TestStatsCounting: a caller's tally of what Run returns — the only
// outcome record a Tx keeps is its return value — books one commit and one
// abort per reason, none of them injected.
func TestStatsCounting(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	tx := NewTx(m, Config{})
	var outcomes [NumReasons]int
	for _, body := range []func(*Tx){
		func(tx *Tx) { tx.Write(a, 1) },
		func(tx *Tx) { tx.Abort() },
		func(tx *Tx) { tx.Unsupported() },
	} {
		outcomes[tx.Run(body)]++
		if tx.LastAbortInjected() {
			t.Error("an organic outcome reported as injected")
		}
	}
	if outcomes[None] != 1 || outcomes[Explicit] != 1 || outcomes[Unsupported] != 1 {
		t.Errorf("outcome breakdown wrong: %v", outcomes)
	}
	if m.Load(a) != 1 {
		t.Errorf("word = %d, want the one commit's 1", m.Load(a))
	}
}

func TestNestedRunPanics(t *testing.T) {
	m := newHeap()
	tx := NewTx(m, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("nested Run did not panic")
		}
	}()
	tx.Run(func(inner *Tx) {
		tx.Run(func(*Tx) {})
	})
}

func TestUserPanicPropagatesAndDiscards(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	tx := NewTx(m, Config{})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		tx.Run(func(tx *Tx) {
			tx.Write(a, 5)
			panic("boom")
		})
	}()
	if m.Load(a) != 0 {
		t.Fatal("write leaked through a user panic")
	}
	if tx.Active() {
		t.Fatal("Tx still active after panic")
	}
	// The Tx must be reusable.
	if reason := tx.Run(func(tx *Tx) { tx.Write(a, 1) }); reason != None {
		t.Fatalf("Tx unusable after user panic: %v", reason)
	}
}

func TestAccessorsOutsideTransactionPanic(t *testing.T) {
	m := newHeap()
	tx := NewTx(m, Config{})
	for name, f := range map[string]func(){
		"Read":        func() { tx.Read(8) },
		"Write":       func() { tx.Write(8, 1) },
		"Abort":       func() { tx.Abort() },
		"Unsupported": func() { tx.Unsupported() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s outside a transaction did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConflictBetweenTransactions(t *testing.T) {
	// Two transactions interleaved by hand: T1 reads a; T2 writes a and
	// commits; T1 must fail its commit.
	m := newHeap()
	a := m.Alloc(1)
	other := m.Alloc(1)
	t1 := NewTx(m, Config{})
	t2 := NewTx(m, Config{})
	reason := t1.Run(func(tx *Tx) {
		tx.Read(a)
		if r2 := t2.Run(func(tx2 *Tx) { tx2.Write(a, 3) }); r2 != None {
			t.Fatalf("T2 commit failed: %v", r2)
		}
		tx.Write(other, 1)
	})
	if reason != Conflict {
		t.Fatalf("T1 reason = %v, want conflict", reason)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	t1 := NewTx(m, Config{})
	t2 := NewTx(m, Config{})
	reason := t1.Run(func(tx *Tx) {
		tx.Read(a)
		tx.Write(a, 1)
		if r2 := t2.Run(func(tx2 *Tx) { tx2.Write(a, 2) }); r2 != None {
			t.Fatalf("T2 commit failed: %v", r2)
		}
	})
	if reason != Conflict {
		t.Fatalf("T1 reason = %v, want conflict", reason)
	}
	if m.Load(a) != 2 {
		t.Fatalf("final value %d, want T2's 2", m.Load(a))
	}
}

func TestBlindWriteSerializes(t *testing.T) {
	// A write-only transaction to a line another transaction also wrote
	// must still produce one of the two values, never a mix.
	m := newHeap()
	a := m.Alloc(1)
	t1 := NewTx(m, Config{})
	if reason := t1.Run(func(tx *Tx) { tx.Write(a, 10) }); reason != None {
		t.Fatalf("blind write failed: %v", reason)
	}
	if m.Load(a) != 10 {
		t.Fatalf("blind write lost: %d", m.Load(a))
	}
}

func TestAbortReasonStrings(t *testing.T) {
	want := map[AbortReason]string{
		None: "none", Conflict: "conflict", Capacity: "capacity",
		Explicit: "explicit", Unsupported: "unsupported", Spurious: "spurious",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("String(%d) = %q, want %q", r, r.String(), s)
		}
	}
	if AbortReason(200).String() == "" {
		t.Error("unknown reason produced empty string")
	}
}

// TestConcurrentCounterAtomicity hammers one counter from many goroutines
// using transactional increments with retry; the final value must equal
// the number of successful commits.
func TestConcurrentCounterAtomicity(t *testing.T) {
	m := newHeap()
	a := m.Alloc(1)
	const goroutines = 8
	const commitsPerG = 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			tx := NewTx(m, Config{})
			done := 0
			for done < commitsPerG {
				reason := tx.Run(func(tx *Tx) {
					tx.Write(a, tx.Read(a)+1)
				})
				if reason == None {
					done++
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Load(a); got != goroutines*commitsPerG {
		t.Fatalf("lost updates: counter = %d, want %d", got, goroutines*commitsPerG)
	}
}

// TestConcurrentDisjointLinesAllCommit checks that transactions on
// disjoint lines do not abort each other spuriously... they may still
// conflict on the global clock only via ordering, which must not cause
// aborts.
func TestConcurrentDisjointLinesAllCommit(t *testing.T) {
	m := newHeap()
	const goroutines = 8
	addrs := make([]mem.Addr, goroutines)
	for i := range addrs {
		addrs[i] = m.AllocLines(1)
	}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	aborted := make([]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(id int) {
			defer wg.Done()
			tx := NewTx(m, Config{})
			for i := 0; i < 500; i++ {
				for {
					reason := tx.Run(func(tx *Tx) {
						tx.Write(addrs[id], tx.Read(addrs[id])+1)
					})
					if reason == None {
						break
					}
					aborted[id]++
				}
			}
		}(g)
	}
	wg.Wait()
	for i, a := range addrs {
		if got := m.Load(a); got != 500 {
			t.Fatalf("goroutine %d counter = %d, want 500", i, got)
		}
	}
}

// TestQuickTransactionalSwap verifies with random values that a two-word
// transactional swap is atomic and preserves both values.
func TestQuickTransactionalSwap(t *testing.T) {
	m := newHeap()
	a, b := m.AllocLines(1), m.AllocLines(1)
	tx := NewTx(m, Config{})
	f := func(x, y uint64) bool {
		m.Store(a, x)
		m.Store(b, y)
		reason := tx.Run(func(tx *Tx) {
			va, vb := tx.Read(a), tx.Read(b)
			tx.Write(a, vb)
			tx.Write(b, va)
		})
		return reason == None && m.Load(a) == y && m.Load(b) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintReporting(t *testing.T) {
	m := newHeap()
	base := m.AllocLines(4)
	tx := NewTx(m, Config{})
	tx.Run(func(tx *Tx) {
		tx.Read(base)
		tx.Read(base + mem.WordsPerLine)
		tx.Write(base+2*mem.WordsPerLine, 1)
		if tx.ReadSetLines() != 2 {
			t.Errorf("ReadSetLines = %d, want 2", tx.ReadSetLines())
		}
		if tx.WriteSetLines() != 1 {
			t.Errorf("WriteSetLines = %d, want 1", tx.WriteSetLines())
		}
	})
}

// TestTxStartsALineIn: Txs are allocated back to back and every attempt
// writes a Tx's tail, so the fields after the head pad must start a full
// 64-byte cache line in.
func TestTxStartsALineIn(t *testing.T) {
	if off := unsafe.Offsetof(Tx{}.m); off < 64 {
		t.Fatalf("Tx's first live field is %d bytes in; it must be at least a 64-byte cache line", off)
	}
}
