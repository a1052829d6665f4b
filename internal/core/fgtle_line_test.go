package core

import (
	"testing"

	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// These tests pin FG-TLE's unit of software conflict detection — one orec
// per cache line, one barrier per line per attempt — from inside the
// package: they stage single barriers, which no public entry point can.

// TestOrecIndexIsPerLine: the eight words of a line share an orec, and
// consecutive lines still spread (the shape of wanghash's
// TestMixSpreadsSequentialInputs, one level up).
func TestOrecIndexIsPerLine(t *testing.T) {
	for _, n := range []uint64{1, 64, 256, 8192} {
		for line := mem.Addr(1); line < 200; line++ {
			base := line * mem.WordsPerLine
			for w := mem.Addr(1); w < mem.WordsPerLine; w++ {
				if orecIndex(base+w, n) != orecIndex(base, n) {
					t.Fatalf("n=%d: words 0 and %d of line %d map to different orecs", n, w, line)
				}
			}
		}
	}
	const buckets = 64
	var counts [buckets]int
	for line := mem.Addr(0); line < 1024; line++ {
		counts[orecIndex(line*mem.WordsPerLine, buckets)]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Errorf("bucket %d empty for 1024 consecutive lines", b)
		}
		if c > 64 {
			t.Errorf("bucket %d pathologically hot: %d of 1024", b, c)
		}
	}
}

// stamped returns the indexes of the orecs in [base, base+n) holding v.
func stamped(m *mem.Memory, base mem.Addr, n uint64, v uint64) []uint64 {
	var idx []uint64
	for i := uint64(0); i < n; i++ {
		if m.Load(base+mem.Addr(i)) == v {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestMethodsAgreeOnOrecIndex: FG-TLE(n), adaptive FG-TLE and ALE — the §2
// comparison point — stamp exactly the orec orecIndex names, for a word in
// the middle of a line.
func TestMethodsAgreeOnOrecIndex(t *testing.T) {
	const n = 256
	m := mem.New(1 << 16)
	a := m.AllocLines(1) + 5

	check := func(name string, base mem.Addr, v uint64) {
		t.Helper()
		got := stamped(m, base, n, v)
		if len(got) != 1 || got[0] != orecIndex(a, n) {
			t.Errorf("%s stamped orecs %v for a write, want [%d]", name, got, orecIndex(a, n))
		}
	}
	write := func(c Context) { c.Write(a, 1) }

	fg := NewFGTLE(m, n, Policy{}).NewThread().(*fgtleThread)
	fg.lockSection(write)
	check("FG-TLE", fg.wOrecs, fg.seq)

	ad := NewAdaptiveFGTLE(m, Policy{}, AdaptiveConfig{MaxOrecs: n}).NewThread().(*adaptiveThread)
	ad.lockSection(write)
	check("FG-TLE(adaptive)", ad.wOrecs, ad.seq)

	ale := NewALE(m, n, Policy{})
	ale.NewThread().Atomic(write) // uncontended: commits on ALE's instrumented fast path
	check("ALE", ale.orecs, m.Load(ale.seqAddr))
}

// accessCounter counts an attempt's transactional accesses through the
// injector hook, which htm consults once per Read or Write.
type accessCounter struct{ n *int }

func (accessCounter) TxBegin() (int, int, htm.AbortReason) { return 0, 0, htm.None }
func (c accessCounter) TxAccess(int, bool) htm.AbortReason { *c.n++; return htm.None }
func (accessCounter) TxPreCommit() htm.AbortReason         { return htm.None }

// TestOneBarrierPerLine: a section that reads four words of each of k fresh
// lines, comes back for a fifth, and then writes two words of j of them
// acquires k read orecs and j write orecs under the lock (the mapping), and
// on the slow path runs a barrier per visit to a line, not per access (the
// memo): one orec read for each of the 2k read visits, two for each of the j
// write visits, beside its 5k reads and 2j writes.
func TestOneBarrierPerLine(t *testing.T) {
	const k, j = 6, 3
	var accesses int
	p := Policy{}
	p.HTM.NewInjector = func() htm.Injector { return accessCounter{&accesses} }
	m := mem.New(1 << 16)
	meth := NewFGTLE(m, 4096, p)
	lines := m.AllocLines(k)
	seen := map[uint64]bool{}
	for i := mem.Addr(0); i < k; i++ {
		seen[orecIndex(lines+i*mem.WordsPerLine, 4096)] = true
	}
	if len(seen) != k {
		t.Fatalf("test layout: %d lines share %d orecs; pick another orec count", k, len(seen))
	}
	body := func(c Context) {
		for i := mem.Addr(0); i < k; i++ {
			for w := mem.Addr(0); w < 4; w++ {
				c.Read(lines + i*mem.WordsPerLine + w)
			}
		}
		for i := mem.Addr(0); i < k; i++ {
			c.Read(lines + i*mem.WordsPerLine + 4)
		}
		for i := mem.Addr(0); i < j; i++ {
			c.Write(lines+i*mem.WordsPerLine+6, 1)
			c.Write(lines+i*mem.WordsPerLine+7, 1)
		}
	}

	th := meth.NewThread().(*fgtleThread)
	th.lockSection(body)
	if th.uniqR != k || th.uniqW != j {
		t.Fatalf("lock section acquired %d read and %d write orecs, want %d and %d", th.uniqR, th.uniqW, k, j)
	}

	meth.Lock().Acquire()
	defer meth.Lock().Release()
	accesses = 0
	if r := th.runSlow(body); r != htm.None {
		t.Fatalf("slow attempt beside an idle holder: %v", r)
	}
	if want := 2*k + 5*k + 2*j + 2*j; accesses != want {
		t.Fatalf("slow attempt made %d transactional accesses, want %d (one barrier per visit to a line)", accesses, want)
	}
}

// TestBarrierMemoDiesWithTheAttempt is the teeth for skipping a line's
// repeated barrier: inside an attempt the skipped check is covered — a
// holder that stamps the line's orec and stores to the line aborts the
// attempt's next access (Conflict), and one that stamps the r-orec of a line
// the attempt wrote fails its commit — and the memo must not outlive the
// attempt, or the next one walks past a stamped orec and commits.
func TestBarrierMemoDiesWithTheAttempt(t *testing.T) {
	m := mem.New(1 << 16)
	fg := NewFGTLE(m, 256, Policy{})
	ad := NewAdaptiveFGTLE(m, Policy{}, AdaptiveConfig{MaxOrecs: 256})
	fgT := fg.NewThread().(*fgtleThread)
	adT := ad.NewThread().(*adaptiveThread)
	for _, tc := range []struct {
		name    string
		lock    *spinlock.Lock
		f       *fgtleThread
		runSlow func(body func(Context)) htm.AbortReason
	}{
		{"FG-TLE(256)", fg.Lock(), fgT, fgT.runSlow},
		{"FG-TLE(adaptive)", ad.Lock(), &adT.fgtleThread, adT.runSlow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.lock.Acquire()
			defer tc.lock.Release()
			// The test is the holder: open a section's epoch by hand.
			seq := m.Load(tc.f.epochAddr) + 1
			m.Store(tc.f.epochAddr, seq)
			defer m.Store(tc.f.epochAddr, seq+1)

			l := m.AllocLines(1)
			idx := mem.Addr(orecIndex(l, 256))
			if r := tc.runSlow(func(c Context) {
				c.Read(l)
				m.Store(tc.f.wOrecs+idx, seq) // the holder's write barrier ...
				m.Store(l+1, 7)               // ... and its write
				c.Read(l + 1)
			}); r != htm.Conflict {
				t.Fatalf("read of a line the holder wrote mid-attempt: %v, want %v", r, htm.Conflict)
			}
			if r := tc.runSlow(func(c Context) { c.Read(l) }); r != htm.Explicit {
				t.Fatalf("next attempt's read of the stamped line: %v, want %v", r, htm.Explicit)
			}

			l = m.AllocLines(1)
			idx = mem.Addr(orecIndex(l, 256))
			if r := tc.runSlow(func(c Context) {
				c.Write(l, 1)
				m.Store(tc.f.rOrecs+idx, seq) // the holder's read barrier
				c.Write(l+1, 1)
			}); r != htm.Conflict {
				t.Fatalf("commit of a write to a line the holder read mid-attempt: %v, want %v", r, htm.Conflict)
			}
			if r := tc.runSlow(func(c Context) { c.Write(l, 1) }); r != htm.Explicit {
				t.Fatalf("next attempt's write to the line the holder read: %v, want %v", r, htm.Explicit)
			}
			if m.Load(l) != 0 || m.Load(l+1) != 0 {
				t.Fatal("a slow-path write reached a line the holder had read")
			}
		})
	}
}
