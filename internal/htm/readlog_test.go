package htm

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"rtle/internal/mem"
)

// The read set is a log of lines, a repeat of the line before left out,
// folded into the readLines hash when it reaches the capacity limit. These
// tests pin the edges of that scheme: repeats that are not consecutive, the
// capacity abort's position across the fold, a written line that was also
// read, and the fold itself.

// lines allocates n lines and returns the address of the first word of each.
func lines(m *mem.Memory, n int) []mem.Addr {
	base := m.AllocLines(n)
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = base + mem.Addr(i*mem.WordsPerLine)
	}
	return out
}

// TestAlternatingReadsFitTwoLines: A, B, A, B, ... never repeats the line
// before, so every read reaches the log; the log fills at four entries and
// folds, and ten thousand reads still hold two lines.
func TestAlternatingReadsFitTwoLines(t *testing.T) {
	m := newHeap()
	l := lines(m, 2)
	tx := NewTx(m, Config{ReadLines: 4})
	reason := tx.Run(func(tx *Tx) {
		for i := 0; i < 10000; i++ {
			tx.Read(l[i%2])
		}
		if n := tx.ReadSetLines(); n != 2 {
			t.Errorf("ReadSetLines = %d after alternating two lines, want 2", n)
		}
	})
	if reason != None {
		t.Fatalf("alternating reads of two lines under ReadLines 4: %v, want commit", reason)
	}
}

// TestFifthLineAbortsExactlyThere: under a limit of four lines, re-reads of
// lines already held cost nothing whether or not the log has folded, and
// the first read of a fifth distinct line is the one that aborts. A squeeze
// to four below a configured eight gives the same abort booked to the
// injector.
func TestFifthLineAbortsExactlyThere(t *testing.T) {
	m := newHeap()
	l := lines(m, 5)
	a, b, c, d, e := l[0], l[1], l[2], l[3], l[4]
	for _, tc := range []struct {
		name  string
		reads []mem.Addr // the last read is the fifth distinct line
	}{
		{"fold before the fourth line", []mem.Addr{a, b, a, b, c, b, a, d, c, a + 1, d + 2, e}},
		{"fold at the fifth line", []mem.Addr{a, a + 1, b, b, c, c + 3, d, d, e}},
	} {
		for _, squeezed := range []bool{false, true} {
			cfg := Config{ReadLines: 4}
			if squeezed {
				cfg = Config{ReadLines: 8, NewInjector: func() Injector { return &scriptedInjector{squeezeReads: 4} }}
			}
			tx := NewTx(m, cfg)
			done := 0
			reason := tx.Run(func(tx *Tx) {
				for _, r := range tc.reads {
					tx.Read(r)
					done++
				}
			})
			if reason != Capacity || done != len(tc.reads)-1 {
				t.Errorf("%s (squeezed %v): %v after %d of %d reads, want Capacity at the last", tc.name, squeezed, reason, done, len(tc.reads))
			}
			if tx.LastAbortInjected() != squeezed {
				t.Errorf("%s (squeezed %v): LastAbortInjected = %v", tc.name, squeezed, tx.LastAbortInjected())
			}
		}
	}
}

// TestReadWrittenLineStoredBeforeCommit: a line the attempt read and then
// wrote, stored to by a plain store before the commit, is a conflict at
// commit — with the read set still a log and after it folded.
func TestReadWrittenLineStoredBeforeCommit(t *testing.T) {
	m := newHeap()
	l := lines(m, 4)
	x := l[0]
	for _, fold := range []bool{false, true} {
		tx := NewTx(m, Config{ReadLines: 3})
		reason := tx.Run(func(tx *Tx) {
			tx.Read(x)
			if fold {
				tx.Read(l[1])
				tx.Read(l[2])
				tx.Read(l[1])
			}
			tx.Write(x, 1)
			m.Store(x+1, 2)
		})
		if reason != Conflict {
			t.Errorf("fold %v: %v, want conflict", fold, reason)
		}
		if got := m.Load(x); got != 0 {
			t.Errorf("fold %v: the aborted write was published: %d", fold, got)
		}
	}
}

// TestAttemptFoldsOnce: the log folds when it is full, then stays as it is
// for the rest of the attempt, the hash taking every later line; the next
// attempt starts with an empty log and no fold.
func TestAttemptFoldsOnce(t *testing.T) {
	m := newHeap()
	l := lines(m, 4)
	a, b, c, d := l[0], l[1], l[2], l[3]
	tx := NewTx(m, Config{ReadLines: 4})
	reason := tx.Run(func(tx *Tx) {
		for _, r := range []mem.Addr{a, b, a, b} {
			tx.Read(r)
		}
		if tx.folded || len(tx.readLog) != 4 {
			t.Fatalf("after four logged reads: folded %v, log %d entries; want unfolded, 4", tx.folded, len(tx.readLog))
		}
		log := slices.Clone(tx.readLog)
		tx.Read(c)
		if !tx.folded || tx.readLines.len() != 3 {
			t.Fatalf("after the fifth entry: folded %v, hash %d lines; want folded, 3", tx.folded, tx.readLines.len())
		}
		for i := 0; i < 1000; i++ {
			tx.Read(l[i%4])
			tx.Read(l[(i*3)%4])
		}
		if !slices.Equal(tx.readLog, log) || tx.readLines.len() != 4 {
			t.Errorf("after the fold: log %v (was %v), hash %d lines; want the log unchanged and 4", tx.readLog, log, tx.readLines.len())
		}
		tx.Read(d)
	})
	if reason != None {
		t.Fatalf("four lines under ReadLines 4: %v, want commit", reason)
	}
	if tx.folded || len(tx.readLog) != 0 || tx.readLines.len() != 0 {
		t.Fatalf("after Run: folded %v, log %d, hash %d; want a fresh read set", tx.folded, len(tx.readLog), tx.readLines.len())
	}
}

// TestQuickReadLogMatchesDistinctLines: for any sequence of line reads
// under a small limit, the attempt commits exactly when the sequence has no
// more distinct lines than the limit, aborts with Capacity at the first
// read past it otherwise, and reports the distinct count as its footprint.
func TestQuickReadLogMatchesDistinctLines(t *testing.T) {
	m := newHeap()
	l := lines(m, 8)
	f := func(seq []uint8, limit uint8) bool {
		limit = limit%6 + 1
		tx := NewTx(m, Config{ReadLines: int(limit)})
		var seen []uint8
		overflow := -1
		for i, s := range seq {
			s %= 8
			if !slices.Contains(seen, s) {
				if len(seen) == int(limit) {
					overflow = i
					break
				}
				seen = append(seen, s)
			}
		}
		done, footprint := 0, 0
		reason := tx.Run(func(tx *Tx) {
			for _, s := range seq {
				tx.Read(l[s%8] + mem.Addr(s/8%mem.WordsPerLine))
				done++
			}
			footprint = tx.ReadSetLines()
		})
		if overflow >= 0 {
			return reason == Capacity && done == overflow
		}
		return reason == None && footprint == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestReadFastPathFieldsShareALine: Read's fast path loads m, snapshot,
// readLog, lastLine, effReadLines and slowRead; they sit in the one 64-byte
// line after the head pad, and the whole Tx stays in the 256-byte size class.
func TestReadFastPathFieldsShareALine(t *testing.T) {
	var tx Tx
	first, last := unsafe.Offsetof(tx.m), unsafe.Offsetof(tx.slowRead)
	for _, off := range []uintptr{unsafe.Offsetof(tx.snapshot), unsafe.Offsetof(tx.readLog), unsafe.Offsetof(tx.lastLine), unsafe.Offsetof(tx.effReadLines)} {
		if off < first || off > last {
			t.Fatalf("a fast-path field at offset %d lies outside m..slowRead (%d..%d)", off, first, last)
		}
	}
	if first/64 != last/64 {
		t.Fatalf("Read's fast-path fields span offsets %d..%d, across a 64-byte line", first, last)
	}
	if size := unsafe.Sizeof(tx); size > 256 {
		t.Fatalf("Tx is %d bytes, past the 256-byte size class", size)
	}
}
