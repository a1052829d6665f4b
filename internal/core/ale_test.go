package core_test

import (
	"sync"
	"testing"
	"time"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func TestALEName(t *testing.T) {
	m := mem.New(1 << 16)
	if got := core.NewALE(m, 256, core.Policy{}).Name(); got != "ALE(256)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestALEOrecValidation(t *testing.T) {
	m := mem.New(1 << 16)
	for _, bad := range []int{0, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewALE(%d) did not panic", bad)
				}
			}()
			core.NewALE(m, bad, core.Policy{})
		}()
	}
}

func TestALESingleThreadCounter(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewALE(m, 64, core.Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	for i := 0; i < 100; i++ {
		th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	}
	if m.Load(a) != 100 {
		t.Fatalf("counter = %d", m.Load(a))
	}
	if th.Stats().FastCommits != 100 {
		t.Fatalf("FastCommits = %d, want 100", th.Stats().FastCommits)
	}
}

func TestALESoftwarePathCompletes(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewALE(m, 64, core.Policy{Attempts: 2})
	a := m.AllocLines(1)
	th := meth.NewThread()
	th.Atomic(func(c core.Context) {
		c.Unsupported() // kills HTM attempts, no-op in software
		c.Write(a, c.Read(a)+1)
	})
	s := th.Stats()
	if s.LockRuns != 1 {
		t.Fatalf("LockRuns = %d, want 1", s.LockRuns)
	}
	if s.STMCommitsHTM != 1 {
		t.Fatalf("STMCommitsHTM = %d, want 1 (write-back via HTM)", s.STMCommitsHTM)
	}
	if m.Load(a) != 1 {
		t.Fatal("software write-back lost")
	}
}

func TestALESoftwareReadOnly(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewALE(m, 64, core.Policy{Attempts: 1})
	a := m.AllocLines(1)
	m.Store(a, 42)
	th := meth.NewThread()
	var got uint64
	th.Atomic(func(c core.Context) {
		c.Unsupported()
		got = c.Read(a)
	})
	if got != 42 {
		t.Fatalf("read %d", got)
	}
	if th.Stats().STMCommitsRO != 1 {
		t.Fatalf("STMCommitsRO = %d, want 1", th.Stats().STMCommitsRO)
	}
}

// TestALEFastPathRunsWhileSoftwareActive is ALE's defining behaviour: a
// software section in progress does not stop fast-path transactions that
// touch disjoint data (the software thread holds the lock, but the fast
// path does not subscribe to it).
func TestALEFastPathRunsWhileSoftwareActive(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewALE(m, 256, core.Policy{})
	x := m.AllocLines(1)
	y := m.AllocLines(1)

	sw := meth.NewThread()
	hw := meth.NewThread()
	inCS := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		sw.Atomic(func(c core.Context) {
			c.Unsupported() // aborts every fast-path attempt; no-op in software
			c.Read(x)
			inCS <- struct{}{}
			<-release
			c.Write(x, 1)
		})
		close(done)
	}()
	select {
	case <-inCS:
	case <-time.After(5 * time.Second):
		t.Fatal("software section never started")
	}

	// Fast-path op on disjoint data must commit while the software
	// section is open.
	finished := make(chan struct{})
	go func() {
		hw.Atomic(func(c core.Context) { c.Write(y, 9) })
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("fast path blocked by an active software section")
	}
	if hw.Stats().FastCommits != 1 {
		t.Fatalf("FastCommits = %d, want 1", hw.Stats().FastCommits)
	}
	close(release)
	<-done
	if m.Load(x) != 1 || m.Load(y) != 9 {
		t.Fatalf("x=%d y=%d", m.Load(x), m.Load(y))
	}
}

// TestALESoftwareDetectsInterference: a fast-path commit to data the
// software section read must force the section to re-run; the final state
// must reflect both updates.
func TestALESoftwareDetectsInterference(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewALE(m, 256, core.Policy{})
	a := m.AllocLines(1)
	sw := meth.NewThread()
	hw := meth.NewThread()
	first := true
	sw.Atomic(func(c core.Context) {
		if c.InHTM() {
			c.Unsupported() // force software path
		}
		v := c.Read(a)
		if first {
			first = false
			hw.Atomic(func(c2 core.Context) { c2.Write(a, c2.Read(a)+10) })
		}
		c.Write(a, v+1)
	})
	if got := m.Load(a); got != 11 {
		t.Fatalf("final = %d, want 11 (ALE software section lost a fast-path update)", got)
	}
	if sw.Stats().STMAborts == 0 {
		t.Fatal("no software abort recorded despite interference")
	}
}

// TestALEConcurrentCounterMixed: exact accounting across fast and
// software paths under concurrency.
func TestALEConcurrentCounterMixed(t *testing.T) {
	m := mem.New(1 << 18)
	meth := core.NewALE(m, 64, core.Policy{})
	a := m.AllocLines(1)
	const goroutines = 6
	const perG = 1500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		th := meth.NewThread()
		go func(id int, th core.Thread) {
			defer wg.Done()
			r := rng.NewXoshiro256(uint64(id) + 41)
			for i := 0; i < perG; i++ {
				unfriendly := r.Intn(15) == 0
				th.Atomic(func(c core.Context) {
					if unfriendly {
						c.Unsupported()
					}
					c.Write(a, c.Read(a)+1)
				})
			}
		}(g, th)
	}
	wg.Wait()
	if got := m.Load(a); got != goroutines*perG {
		t.Fatalf("lost updates under ALE: %d, want %d", got, goroutines*perG)
	}
}

// TestALEConcurrentAVL: structural integrity and net-effect accounting on
// the tree, with unfriendly ops keeping the software path busy.
func TestALEConcurrentAVL(t *testing.T) {
	m := mem.New(1 << 22)
	meth := core.NewALE(m, 1024, core.Policy{})
	set := avl.New(m)
	const keyRange = 48
	const goroutines = 5
	const perG = 500
	deltas := make([][]int64, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		deltas[g] = make([]int64, keyRange)
		th := meth.NewThread()
		go func(id int, th core.Thread) {
			defer wg.Done()
			h := set.NewHandle()
			r := rng.NewXoshiro256(uint64(id) + 13)
			for i := 0; i < perG; i++ {
				key := r.Uint64n(keyRange)
				unfriendly := r.Intn(10) == 0
				switch r.Intn(3) {
				case 0:
					var res bool
					th.Atomic(func(c core.Context) {
						if unfriendly {
							c.Unsupported()
						}
						res = h.InsertCS(c, key)
					})
					h.AfterInsert(res)
					if res {
						deltas[id][key]++
					}
				case 1:
					var res bool
					th.Atomic(func(c core.Context) {
						if unfriendly {
							c.Unsupported()
						}
						res = h.RemoveCS(c, key)
					})
					h.AfterRemove(res)
					if res {
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
		t.Fatalf("tree corrupted under ALE: %v", err)
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
			t.Errorf("key %d: net %d, final %v — ALE isolation violated", k, net, final[k])
		}
	}
}

// TestALEPessimisticWriteBackBlocksFastPath: when the write-back keeps
// failing, the blocked flag must halt fast transactions and the write-back
// must still complete. We force it with heavy spurious aborts confined to
// the software thread... fault injection is per-method, so instead verify
// the blocked path end-to-end by making HTM unusable entirely.
func TestALEPessimisticWriteBackBlocksFastPath(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewALE(m, 64, withSpurious(core.Policy{Attempts: 1}, 1, 9))
	a := m.AllocLines(1)
	th := meth.NewThread()
	for i := 0; i < 20; i++ {
		th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	}
	if m.Load(a) != 20 {
		t.Fatalf("counter = %d, want 20", m.Load(a))
	}
	s := th.Stats()
	if s.STMCommitsLock != 20 {
		t.Fatalf("STMCommitsLock = %d, want 20 (all write-backs pessimistic)", s.STMCommitsLock)
	}
}
