package core

import (
	"testing"
	"unsafe"

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

// TestMethodsAgreeOnOrecIndex: FG-TLE(n), adaptive FG-TLE (at its starting
// size) and ALE — the §2 comparison point — stamp exactly the orec
// orecIndex names, for a word in the middle of a line.
func TestMethodsAgreeOnOrecIndex(t *testing.T) {
	const n = 256
	m := mem.New(1 << 16)
	a := m.AllocLines(1) + 5

	check := func(name string, base mem.Addr, n, v uint64) {
		t.Helper()
		got := stamped(m, base, n, v)
		if len(got) != 1 || got[0] != orecIndex(a, n) {
			t.Errorf("%s stamped orecs %v for a write, want [%d]", name, got, orecIndex(a, n))
		}
	}
	write := func(c Context) { c.Write(a, 1) }

	fg := NewFGTLE(m, n, Policy{}).NewThread().(*fgtleThread)
	fg.lockSection(write)
	check("FG-TLE", fg.wOrecs, n, fg.seq)

	ad := NewAdaptiveFGTLE(m, Policy{}).NewThread().(*adaptiveThread)
	ad.lockSection(write)
	check("FG-TLE(adaptive)", ad.wOrecs, adaptiveMaxOrecs, ad.seq)

	ale := NewALE(m, n, Policy{})
	ale.NewThread().Atomic(write) // uncontended: commits on ALE's instrumented fast path
	check("ALE", ale.orecs, n, m.Load(ale.seqAddr))
}

// accessCounter counts an attempt's transactional accesses through the
// injector hook, which htm consults once per Read or Write.
type accessCounter struct{ n *int }

func (accessCounter) TxBegin() (int, int, htm.AbortReason) { return 0, 0, htm.None }
func (c accessCounter) TxAccess(int, bool) htm.AbortReason { *c.n++; return htm.None }
func (accessCounter) TxPreCommit() htm.AbortReason         { return htm.None }

// quietSections runs n empty lock sections: what the mode follows is the
// distance, in epochs, to the last slow-path write, so admitEpochs/2 quiet
// sections after it leave the next one readers-only — the way production
// gets there.
func quietSections(t *fgtleThread, n int) {
	for i := 0; i < n; i++ {
		t.lockSection(func(Context) {})
	}
}

// TestOneBarrierPerLine: a section that reads four words of each of k fresh
// lines, comes back for a fifth, and then writes two words of j of them
// acquires k read orecs and j write orecs under the lock while writers are
// admitted (the mapping) and j write orecs alone in a readers-only section,
// which stamps no r-orec at all. On the slow path it runs a barrier per
// visit to a line, not per access (the memo): one orec read for each of the
// 2k read visits beside its 5k reads, and — mode word at writers admitted —
// two for each of the j write visits beside its 2j writes, plus the one read
// of the mode word a writing attempt makes and a read-only one does not.
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
	reads := func(c Context) {
		for i := mem.Addr(0); i < k; i++ {
			for w := mem.Addr(0); w < 4; w++ {
				c.Read(lines + i*mem.WordsPerLine + w)
			}
		}
		for i := mem.Addr(0); i < k; i++ {
			c.Read(lines + i*mem.WordsPerLine + 4)
		}
	}
	body := func(c Context) {
		reads(c)
		for i := mem.Addr(0); i < j; i++ {
			c.Write(lines+i*mem.WordsPerLine+6, 1)
			c.Write(lines+i*mem.WordsPerLine+7, 1)
		}
	}

	th := meth.NewThread().(*fgtleThread)
	th.lockSection(body)
	if m.Load(th.admitAddr) != writersAdmitted {
		t.Fatal("a fresh method's first section does not admit writers")
	}
	if th.uniqR != k || th.uniqW != j {
		t.Fatalf("lock section acquired %d read and %d write orecs, want %d and %d", th.uniqR, th.uniqW, k, j)
	}
	if got := stamped(m, th.rOrecs, 4096, th.seq); len(got) != k {
		t.Fatalf("writers admitted: %d r-orecs stamped, want %d", len(got), k)
	}

	quietSections(th, admitEpochs/2)
	th.lockSection(body)
	if m.Load(th.admitAddr) != readersOnly {
		t.Fatalf("%d sections without a slow-path write and the mode word still admits writers", admitEpochs/2)
	}
	if th.uniqR != th.size || th.uniqW != j {
		t.Fatalf("readers-only section: uniqR = %d, uniqW = %d, want %d (pinned at the orec count) and %d", th.uniqR, th.uniqW, th.size, j)
	}
	if got := stamped(m, th.rOrecs, 4096, th.seq); len(got) != 0 {
		t.Fatalf("readers-only section stamped r-orecs %v", got)
	}
	if got := stamped(m, th.wOrecs, 4096, th.seq); len(got) != j {
		t.Fatalf("readers-only section stamped %d w-orecs, want %d", len(got), j)
	}

	meth.Lock().Acquire()
	defer meth.Lock().Release()
	accesses = 0
	if r := th.runSlow(reads); r != htm.None {
		t.Fatalf("read-only slow attempt beside an idle holder: %v", r)
	}
	if want := 2*k + 5*k; accesses != want {
		t.Fatalf("read-only slow attempt made %d transactional accesses, want %d (one barrier per visit to a line, the mode word unread)", accesses, want)
	}
	m.Store(th.admitAddr, writersAdmitted) // as the holder of an admitting section would have
	accesses = 0
	if r := th.runSlow(body); r != htm.None {
		t.Fatalf("writing slow attempt beside an idle holder that admits writers: %v", r)
	}
	if want := 2*k + 5*k + 1 + 2*j + 2*j; accesses != want {
		t.Fatalf("writing slow attempt made %d transactional accesses, want %d (the read-only count, the mode word once, two orecs per written line)", accesses, want)
	}
}

// bothFlavours runs f against a fresh FG-TLE(256) and a fresh adaptive
// FG-TLE over one heap — the two share fgtleThread's barriers and differ in
// runSlow alone — handing it the method's lock, one thread to play the
// holder, and a second thread's runSlow. The holder's size is its method's
// orec count: 256, or the adaptive variant's starting 8192.
func bothFlavours(t *testing.T, f func(t *testing.T, m *mem.Memory, lock *spinlock.Lock, th *fgtleThread, runSlow func(func(Context)) htm.AbortReason)) {
	m := mem.New(1 << 16)
	fg := NewFGTLE(m, 256, Policy{})
	ad := NewAdaptiveFGTLE(m, Policy{})
	t.Run("FG-TLE(256)", func(t *testing.T) {
		f(t, m, fg.Lock(), fg.NewThread().(*fgtleThread), fg.NewThread().(*fgtleThread).runSlow)
	})
	t.Run("FG-TLE(adaptive)", func(t *testing.T) {
		f(t, m, ad.Lock(), &ad.NewThread().(*adaptiveThread).fgtleThread, ad.NewThread().(*adaptiveThread).runSlow)
	})
}

// TestBarrierMemoDiesWithTheAttempt is the teeth for skipping a line's
// repeated barrier: inside an attempt the skipped check is covered — a
// holder that stamps the line's orec and stores to the line aborts the
// attempt's next access (Conflict), and one that stamps the r-orec of a line
// the attempt wrote fails its commit — and the memo must not outlive the
// attempt, or the next one walks past a stamped orec and commits. The staged
// section admits writers: r-orecs are stamped and checked only then.
func TestBarrierMemoDiesWithTheAttempt(t *testing.T) {
	bothFlavours(t, func(t *testing.T, m *mem.Memory, lock *spinlock.Lock, th *fgtleThread, runSlow func(func(Context)) htm.AbortReason) {
		lock.Acquire()
		defer lock.Release()
		// The test is the holder: open a section's epoch by hand and set
		// the mode word as lockSection would.
		seq := m.Load(th.epochAddr) + 1
		m.Store(th.epochAddr, seq)
		defer m.Store(th.epochAddr, seq+1)
		m.Store(th.admitAddr, writersAdmitted)

		l := m.AllocLines(1)
		idx := mem.Addr(orecIndex(l, th.size))
		if r := runSlow(func(c Context) {
			c.Read(l)
			m.Store(th.wOrecs+idx, seq) // the holder's write barrier ...
			m.Store(l+1, 7)             // ... and its write
			c.Read(l + 1)
		}); r != htm.Conflict {
			t.Fatalf("read of a line the holder wrote mid-attempt: %v, want %v", r, htm.Conflict)
		}
		if r := runSlow(func(c Context) { c.Read(l) }); r != htm.Explicit {
			t.Fatalf("next attempt's read of the stamped line: %v, want %v", r, htm.Explicit)
		}

		l = m.AllocLines(1)
		idx = mem.Addr(orecIndex(l, th.size))
		if r := runSlow(func(c Context) {
			c.Write(l, 1)
			m.Store(th.rOrecs+idx, seq) // the holder's read barrier
			c.Write(l+1, 1)
		}); r != htm.Conflict {
			t.Fatalf("commit of a write to a line the holder read mid-attempt: %v, want %v", r, htm.Conflict)
		}
		if r := runSlow(func(c Context) { c.Write(l, 1) }); r != htm.Explicit {
			t.Fatalf("next attempt's write to the line the holder read: %v, want %v", r, htm.Explicit)
		}
		if m.Load(l) != 0 || m.Load(l+1) != 0 {
			t.Fatal("a slow-path write reached a line the holder had read")
		}
	})
}

// TestReadersOnlyTurnsWritersAway is the teeth of the mode word. The test is
// the holder of an open section and has only read line l. In a readers-only
// section it stamped no r-orec for that read — that is the point — so the
// mode word is all that stands between a slow-path writer and the line: the
// writer must abort itself. With writers admitted the r-orec does the same
// job, and with neither in the way the write commits beside the holder.
func TestReadersOnlyTurnsWritersAway(t *testing.T) {
	bothFlavours(t, func(t *testing.T, m *mem.Memory, lock *spinlock.Lock, th *fgtleThread, runSlow func(func(Context)) htm.AbortReason) {
		lock.Acquire()
		defer lock.Release()
		seq := m.Load(th.epochAddr) + 1
		m.Store(th.epochAddr, seq)
		defer m.Store(th.epochAddr, seq+1)

		l := m.AllocLines(1)
		write := func(c Context) { c.Write(l, 9) }

		m.Store(th.admitAddr, readersOnly)
		if r := runSlow(write); r != htm.Explicit {
			t.Fatalf("readers-only, holder read the line unstamped: slow-path write %v, want %v", r, htm.Explicit)
		}
		m.Store(th.admitAddr, writersAdmitted)
		m.Store(th.rOrecs+mem.Addr(orecIndex(l, th.size)), seq) // the holder's read barrier
		if r := runSlow(write); r != htm.Explicit {
			t.Fatalf("writers admitted, r-orec stamped: slow-path write %v, want %v", r, htm.Explicit)
		}
		if m.Load(l) != 0 {
			t.Fatal("a slow-path write reached a line the holder had read")
		}
		m.Store(th.rOrecs+mem.Addr(orecIndex(l, th.size)), 0)
		if r := runSlow(write); r != htm.None || m.Load(l) != 9 {
			t.Fatalf("writers admitted, no orec in the way: slow-path write %v, line holds %d; want a commit of 9", r, m.Load(l))
		}
	})
}

// TestModeFlipFailsAWritingAttempt: the mode word is read inside the
// transaction, so a writing attempt that saw "admitted" cannot commit past a
// holder's flip to readers-only (the holder's next reads are unstamped) —
// and a read-only attempt never read the word, so the same store leaves it
// alone.
func TestModeFlipFailsAWritingAttempt(t *testing.T) {
	bothFlavours(t, func(t *testing.T, m *mem.Memory, lock *spinlock.Lock, th *fgtleThread, runSlow func(func(Context)) htm.AbortReason) {
		lock.Acquire()
		defer lock.Release()
		l := m.AllocLines(2)

		m.Store(th.admitAddr, writersAdmitted)
		if r := runSlow(func(c Context) {
			c.Write(l, 1)
			m.Store(th.admitAddr, readersOnly) // the next holder's flip
			c.Write(l+1, 1)
		}); r != htm.Conflict {
			t.Fatalf("writing attempt across a flip to readers-only: %v, want %v", r, htm.Conflict)
		}
		if m.Load(l) != 0 || m.Load(l+1) != 0 {
			t.Fatal("a write admitted before the flip was published after it")
		}

		m.Store(th.admitAddr, writersAdmitted)
		if r := runSlow(func(c Context) {
			c.Read(l)
			m.Store(th.admitAddr, readersOnly)
			c.Read(l + mem.WordsPerLine)
		}); r != htm.None {
			t.Fatalf("read-only attempt across the same flip: %v, want a commit", r)
		}
	})
}

// TestAdaptiveAttemptReadsModeAndSizeInside: adaptive FG-TLE's slow attempt
// makes exactly two transactional accesses more than FG-TLE's over the same
// body — the mode and the live orec count, read inside the transaction. Read
// before it instead, neither is subscribed: a holder that switches to TLE
// mode (and stamps nothing) or resizes (and stamps other orecs) between that
// read and the attempt's begin leaves it checking orecs nobody stamps, and it
// commits half of that holder's section. The simulated HTM validates a
// read-only attempt against its begin snapshot, so no interleaving a test
// can stage tells the two apart by outcome; the access count does.
func TestAdaptiveAttemptReadsModeAndSizeInside(t *testing.T) {
	var accesses int
	p := Policy{}
	p.HTM.NewInjector = func() htm.Injector { return accessCounter{&accesses} }
	m := mem.New(1 << 16)
	fg := NewFGTLE(m, 256, p).NewThread().(*fgtleThread)
	ad := NewAdaptiveFGTLE(m, p).NewThread().(*adaptiveThread)
	l := m.AllocLines(2)
	count := func(runSlow func(func(Context)) htm.AbortReason) int {
		accesses = 0
		if r := runSlow(func(c Context) { c.Read(l); c.Read(l + mem.WordsPerLine) }); r != htm.None {
			t.Fatalf("read-only slow attempt with no holder: %v", r)
		}
		return accesses
	}
	if f, a := count(fg.runSlow), count(ad.runSlow); a != f+2 {
		t.Fatalf("adaptive slow attempt made %d transactional accesses and FG-TLE's %d: want two more, the mode and the orec count", a, f)
	}
}

// TestSlowWriteSignalIsSparse: every writing slow attempt notes the write,
// turned away or not, but only one that finds the published epoch
// publishEpochs stale stores it — a thousand of them beside one long hold
// publish once, so a stream of slow-path writers shares the signal's line
// with the holder read-only. The next section then admits writers, and a
// thousand more beside it, committing this time, publish nothing.
func TestSlowWriteSignalIsSparse(t *testing.T) {
	bothFlavours(t, func(t *testing.T, m *mem.Memory, lock *spinlock.Lock, th *fgtleThread, runSlow func(func(Context)) htm.AbortReason) {
		l := m.AllocLines(1)
		write := func(c Context) { c.Write(l, c.Read(l)+1) }
		attempts := func(want htm.AbortReason) (publishes int) {
			lock.Acquire()
			defer lock.Release()
			for i := 0; i < 1000; i++ {
				before := th.slow.write.n.Load()
				if r := runSlow(write); r != want {
					t.Fatalf("attempt %d: %v, want %v", i, r, want)
				}
				if after := th.slow.write.n.Load(); after != before {
					publishes++
					// One epoch back is still fresh: a store that did not
					// look first would put the snapshot back.
					th.slow.write.n.Store(after - 1)
				}
			}
			return publishes
		}

		quietSections(th, admitEpochs/2+1)
		if m.Load(th.admitAddr) != readersOnly {
			t.Fatal("quiet sections did not leave the method readers-only")
		}
		flips := th.Stats().ModeSwitches
		if n := attempts(htm.Explicit); n != 1 {
			t.Fatalf("1000 turned-away writers beside one hold published %d times, want once", n)
		}
		quietSections(th, 1)
		if m.Load(th.admitAddr) != writersAdmitted || th.Stats().ModeSwitches != flips+1 {
			t.Fatalf("the section after a turned-away writer: mode word %d, %d flips; want writers admitted by one flip",
				m.Load(th.admitAddr), th.Stats().ModeSwitches-flips)
		}
		if n := attempts(htm.None); n != 0 {
			t.Fatalf("1000 committing writers beside one hold, the signal fresh: published %d times, want never", n)
		}
		if m.Load(l) != 1000 {
			t.Fatalf("1000 slow-path increments left %d", m.Load(l))
		}
	})
}

// TestFGTLEMetadataLayout: the lock word and the epoch share a line (the
// holder's acquire, two bumps and release, and a reader's two pre-attempt
// loads, touch one line); the mode word shares its line with neither of them
// and with no orec, so a flip disturbs only attempts that subscribed to it;
// and each host signal word has a host cache line to itself.
func TestFGTLEMetadataLayout(t *testing.T) {
	bothFlavours(t, func(t *testing.T, m *mem.Memory, lock *spinlock.Lock, th *fgtleThread, _ func(func(Context)) htm.AbortReason) {
		if lock.Addr()%mem.WordsPerLine != 0 || th.epochAddr != lock.Addr()+1 {
			t.Errorf("lock word at %d, epoch at %d: want words 0 and 1 of one line", lock.Addr(), th.epochAddr)
		}
		mode := mem.LineOf(th.admitAddr)
		if mode == mem.LineOf(lock.Addr()) {
			t.Error("the mode word shares the lock's line")
		}
		for _, base := range []mem.Addr{th.rOrecs, th.wOrecs} {
			if mode >= mem.LineOf(base) && mode <= mem.LineOf(base+255) {
				t.Errorf("the mode word's line %d lies inside the orec array at %d", mode, base)
			}
		}
		for _, sig := range []*paddedCounter{&th.slow.write, &th.slow.commit} {
			if p := uintptr(unsafe.Pointer(sig)); p%64 != 0 || unsafe.Sizeof(*sig) != 64 {
				t.Errorf("a slow-path signal sits at %#x in %d bytes: want a 64-byte host line of its own", p, unsafe.Sizeof(*sig))
			}
		}
	})
}

// TestFlipPrecedesTheSectionsFirstRead pins where in lockSection the mode
// word is stored: the section that stops admitting writers reads its first
// line without a stamp, so a slow-path writer that starts right after that
// read must already find "readers only" — a flip stored any later (at the
// section's end, say) leaves a window in which neither the mode word nor an
// r-orec stands between the writer and the line.
func TestFlipPrecedesTheSectionsFirstRead(t *testing.T) {
	bothFlavours(t, func(t *testing.T, m *mem.Memory, _ *spinlock.Lock, holder *fgtleThread, runSlow func(func(Context)) htm.AbortReason) {
		l := m.AllocLines(1)
		quietSections(holder, admitEpochs/2)
		if m.Load(holder.admitAddr) != writersAdmitted {
			t.Fatal("staging: the mode flipped a section early")
		}
		holder.lockSection(func(c Context) {
			c.Read(l)
			if r := runSlow(func(c Context) { c.Write(l, 9) }); r != htm.Explicit {
				t.Errorf("slow-path write after the flipping section's first read: %v, want %v", r, htm.Explicit)
			}
		})
		if m.Load(holder.admitAddr) != readersOnly || len(stamped(m, holder.rOrecs, holder.size, holder.seq)) != 0 {
			t.Fatal("staging: the section was not the one that flips to readers-only")
		}
		if m.Load(l) != 0 {
			t.Fatal("a slow-path write reached a line the holder had read unstamped")
		}
	})
}
