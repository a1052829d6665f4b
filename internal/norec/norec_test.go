package norec

import (
	"sync"
	"testing"
	"unsafe"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func TestSingleThreadCounter(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	for i := 0; i < 100; i++ {
		th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	}
	if m.Load(a) != 100 {
		t.Fatalf("counter = %d, want 100", m.Load(a))
	}
	s := th.Stats()
	if s.Ops != 100 || s.STMCommitsLock != 100 {
		t.Fatalf("stats wrong: %+v", *s)
	}
}

func TestReadOnlyCommitsFree(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	m.Store(a, 9)
	th := meth.NewThread()
	var got uint64
	th.Atomic(func(c core.Context) { got = c.Read(a) })
	if got != 9 {
		t.Fatalf("read %d, want 9", got)
	}
	s := th.Stats()
	if s.STMCommitsRO != 1 || s.STMCommitsLock != 0 {
		t.Fatalf("read-only op not committed as RO: %+v", *s)
	}
	// The global sequence lock must be untouched by a read-only commit.
	if m.Load(meth.seqAddr) != 0 {
		t.Fatal("read-only commit moved the sequence lock")
	}
}

func TestReadOwnWrite(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	th.Atomic(func(c core.Context) {
		c.Write(a, 5)
		if c.Read(a) != 5 {
			t.Error("software transaction cannot read its own write")
		}
	})
	if m.Load(a) != 5 {
		t.Fatal("write not published")
	}
}

// TestWideSectionPublishesEveryWrite: a section writing more lines than
// its write set starts with (16) grows it and publishes every value.
func TestWideSectionPublishesEveryWrite(t *testing.T) {
	m := mem.New(1 << 14)
	const lines = 40
	base := m.AllocLines(lines)
	New(m, core.Policy{}).NewThread().Atomic(func(c core.Context) {
		for i := range mem.Addr(lines * 2) {
			c.Write(base+i*mem.WordsPerLine/2, uint64(i)+1)
		}
	})
	for i := range mem.Addr(lines * 2) {
		if got := m.Load(base + i*mem.WordsPerLine/2); got != uint64(i)+1 {
			t.Fatalf("word %d = %d after commit, want %d", i, got, i+1)
		}
	}
}

func TestWritesInvisibleUntilCommit(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	th.Atomic(func(c core.Context) {
		c.Write(a, 7)
		if m.Load(a) != 0 {
			t.Error("buffered software write visible before commit")
		}
	})
}

func TestValidationDetectsInterference(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	other := meth.NewThread()
	th := meth.NewThread()
	first := true
	th.Atomic(func(c core.Context) {
		v := c.Read(a)
		if first {
			first = false
			// Interfering committed writer transaction.
			other.Atomic(func(c2 core.Context) { c2.Write(a, c2.Read(a)+10) })
		}
		c.Write(a, v+1)
	})
	// The first attempt read 0, then the interferer set 10; the retry
	// must observe 10 and commit 11.
	if got := m.Load(a); got != 11 {
		t.Fatalf("final value %d, want 11 (lost update)", got)
	}
	if th.Stats().STMAborts == 0 {
		t.Fatal("no abort recorded despite interference")
	}
}

func TestValidationsCounted(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	other := meth.NewThread()
	th := meth.NewThread()
	first := true
	th.Atomic(func(c core.Context) {
		c.Read(a)
		if first {
			first = false
			other.Atomic(func(c2 core.Context) { c2.Write(b, 1) }) // moves the clock, no value conflict
		}
		c.Read(b) // post-validation sees the clock moved and revalidates
	})
	if th.Stats().Validations == 0 {
		t.Fatal("no validations counted despite a concurrent commit")
	}
	if th.Stats().STMAborts != 0 {
		t.Fatal("value-based validation aborted without a real conflict")
	}
}

func TestConcurrentCounter(t *testing.T) {
	m := mem.New(1 << 16)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	const goroutines = 6
	const perG = 300
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		th := meth.NewThread()
		go func(th core.Thread) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
			}
		}(th)
	}
	wg.Wait()
	if got := m.Load(a); got != goroutines*perG {
		t.Fatalf("lost updates: %d, want %d", got, goroutines*perG)
	}
}

func TestConcurrentAVL(t *testing.T) {
	m := mem.New(1 << 22)
	meth := New(m, core.Policy{})
	set := avl.New(m)
	const keyRange = 32
	const goroutines = 4
	const perG = 400
	var wg sync.WaitGroup
	wg.Add(goroutines)
	deltas := make([][]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		deltas[g] = make([]int64, keyRange)
		th := meth.NewThread()
		go func(id int, th core.Thread) {
			defer wg.Done()
			h := set.NewHandle()
			r := rng.NewXoshiro256(uint64(id) + 77)
			for i := 0; i < perG; i++ {
				key := r.Uint64n(keyRange)
				switch r.Intn(3) {
				case 0:
					if h.Insert(th, key) {
						deltas[id][key]++
					}
				case 1:
					if h.Remove(th, key) {
						deltas[id][key]--
					}
				default:
					h.Contains(th, key)
				}
			}
		}(g, th)
	}
	wg.Wait()
	dc := core.Direct(m)
	if err := set.CheckInvariants(dc); err != nil {
		t.Fatalf("tree corrupted under NOrec: %v", err)
	}
	final := map[uint64]bool{}
	for _, k := range set.Keys(dc) {
		final[k] = true
	}
	for k := uint64(0); k < keyRange; k++ {
		var net int64
		for g := range deltas {
			net += deltas[g][k]
		}
		var want int64
		if final[k] {
			want = 1
		}
		if net != want {
			t.Errorf("key %d: net ops %d but final presence %v", k, net, final[k])
		}
	}
}

func TestUnsupportedIsNoOp(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	th.Atomic(func(c core.Context) {
		if c.InHTM() {
			t.Error("NOrec context claims to be in HTM")
		}
		c.Unsupported() // must not abort software transactions
		c.Write(a, 1)
	})
	if m.Load(a) != 1 {
		t.Fatal("op with Unsupported lost its effect")
	}
}

func TestUserPanicPropagates(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	th := meth.NewThread()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	th.Atomic(func(c core.Context) { panic("boom") })
}

// TestTxCountersStartALineIn pins the padding in front of Tx, as
// core's TestExecCountersStartALineIn does for Exec: threads embedding a Tx
// are allocated back to back in size classes that are not multiples of the
// cache line, and RHNOrec's thread ends in a flag written every section.
func TestTxCountersStartALineIn(t *testing.T) {
	if off := unsafe.Offsetof(Tx{}.Snapshot); off < 64 {
		t.Fatalf("Tx's first live field is %d bytes in; it must be at least a 64-byte cache line", off)
	}
}
