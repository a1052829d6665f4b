package rhnorec

import (
	"sync"
	"testing"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func TestSingleThreadFastPath(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	for i := 0; i < 50; i++ {
		th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	}
	if m.Load(a) != 50 {
		t.Fatalf("counter = %d, want 50", m.Load(a))
	}
	s := th.Stats()
	if s.FastCommits != 50 {
		t.Fatalf("FastCommits = %d, want 50 (no sw txns running, no timestamp bumps)", s.FastCommits)
	}
	if s.SlowCommits != 0 || s.STMStarts != 0 {
		t.Fatalf("unexpected slow/software activity: %+v", *s)
	}
	// No software transactions ran, so the timestamp must be untouched.
	if m.Load(meth.seqAddr) != 0 {
		t.Fatal("timestamp bumped without software transactions")
	}
}

func TestUnsupportedFallsToSoftware(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{Attempts: 3})
	a := m.AllocLines(1)
	th := meth.NewThread()
	th.Atomic(func(c core.Context) {
		c.Unsupported() // aborts HTM, no-op in software
		c.Write(a, c.Read(a)+1)
	})
	s := th.Stats()
	if s.FastAborts[htm.Unsupported] != 3 {
		t.Fatalf("fast unsupported aborts = %d, want 3", s.FastAborts[htm.Unsupported])
	}
	if s.STMStarts == 0 {
		t.Fatal("operation never reached the software path")
	}
	if m.Load(a) != 1 {
		t.Fatal("effect lost")
	}
}

func TestSoftwareCommitViaReducedHTM(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{Attempts: 2})
	a := m.AllocLines(1)
	th := meth.NewThread()
	th.Atomic(func(c core.Context) {
		c.Unsupported()
		c.Write(a, 42)
	})
	s := th.Stats()
	if s.STMCommitsHTM != 1 {
		t.Fatalf("STMCommitsHTM = %d, want 1 (reduced hardware commit)", s.STMCommitsHTM)
	}
	if s.STMCommitsLock != 0 {
		t.Fatalf("unexpected fallback-lock commit")
	}
	if m.Load(a) != 42 {
		t.Fatal("software write lost")
	}
}

func TestHTMBumpsTimestampWhileSoftwareRuns(t *testing.T) {
	m := mem.New(1 << 16)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	b := m.AllocLines(1)

	sw := meth.NewThread()
	hw := meth.NewThread()
	inSW := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		sw.Atomic(func(c core.Context) {
			c.Unsupported() // force software path
			c.Read(a)
			inSW <- struct{}{}
			<-release
			c.Write(a, 1)
		})
		close(done)
	}()
	<-inSW
	// A software transaction is running (swCount > 0): hardware commits
	// must bump the timestamp and be classified HTMSlow.
	before := m.Load(meth.seqAddr)
	hw.Atomic(func(c core.Context) { c.Write(b, 5) })
	if hw.Stats().SlowCommits != 1 {
		t.Fatalf("SlowCommits = %d, want 1 while software transaction runs", hw.Stats().SlowCommits)
	}
	// The attempt is booked on the path it retired on, so commits + aborts
	// <= attempts holds per path.
	if s := hw.Stats(); s.SlowAttempts != 1 || s.FastAttempts != 0 {
		t.Fatalf("attempts slow=%d fast=%d, want 1/0: the bumping attempt belongs to the slow path", s.SlowAttempts, s.FastAttempts)
	}
	if after := m.Load(meth.seqAddr); after != before+2 {
		t.Fatalf("timestamp %d -> %d, want +2", before, after)
	}
	close(release)
	<-done
}

func TestSoftwareValidationSeesHTMWrites(t *testing.T) {
	// A software transaction whose read is overwritten by a hardware
	// commit must abort and retry, never commit stale state.
	m := mem.New(1 << 16)
	meth := New(m, core.Policy{})
	a := m.AllocLines(1)
	sw := meth.NewThread()
	hw := meth.NewThread()
	first := true
	sw.Atomic(func(c core.Context) {
		if c.InHTM() {
			// Force this op onto the software path regardless of
			// the attempt budget.
			c.Unsupported()
		}
		v := c.Read(a)
		if first {
			first = false
			hw.Atomic(func(c2 core.Context) { c2.Write(a, c2.Read(a)+10) })
		}
		c.Write(a, v+1)
	})
	if got := m.Load(a); got != 11 {
		t.Fatalf("final = %d, want 11 (software transaction lost a hardware update)", got)
	}
	if sw.Stats().STMAborts == 0 {
		t.Fatal("software transaction never aborted despite interference")
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

func TestConcurrentMixedPathsAVL(t *testing.T) {
	// Hardware and software transactions interleave on a shared tree;
	// some ops are HTM-unfriendly so the software path stays busy.
	m := mem.New(1 << 22)
	meth := New(m, core.Policy{})
	set := avl.New(m)
	const keyRange = 32
	const goroutines = 5
	const perG = 300
	deltas := make([][]int64, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		deltas[g] = make([]int64, keyRange)
		th := meth.NewThread()
		go func(id int, th core.Thread) {
			defer wg.Done()
			h := set.NewHandle()
			r := rng.NewXoshiro256(uint64(id) + 5)
			for i := 0; i < perG; i++ {
				key := r.Uint64n(keyRange)
				unfriendly := r.Intn(5) == 0
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
		t.Fatalf("tree corrupted under RHNOrec: %v", err)
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
			t.Errorf("key %d: net %d, final %v — hybrid isolation violated", k, net, final[k])
		}
	}
}

func TestReadOnlySoftwareCommit(t *testing.T) {
	m := mem.New(1 << 14)
	meth := New(m, core.Policy{Attempts: 1})
	a := m.AllocLines(1)
	m.Store(a, 3)
	th := meth.NewThread()
	var got uint64
	th.Atomic(func(c core.Context) {
		c.Unsupported()
		got = c.Read(a)
	})
	if got != 3 {
		t.Fatalf("read %d, want 3", got)
	}
	if th.Stats().STMCommitsRO != 1 {
		t.Fatalf("STMCommitsRO = %d, want 1", th.Stats().STMCommitsRO)
	}
}
