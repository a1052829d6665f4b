package core_test

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
	"rtle/internal/spinlock"
)

// TestFGTLEWriterBlockedByHolderRead: the r_orecs array must prevent a
// slow-path transaction from writing data the lock holder has read
// (Figure 3's write barrier checks both orec arrays).
func TestFGTLEWriterBlockedByHolderRead(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewFGTLE(m, 256, core.Policy{})
	x := m.AllocLines(1)
	m.Store(x, 7)

	holder := meth.NewThread()
	writer := meth.NewThread()
	inCS := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		holdLock(holder, inCS, release, func(c core.Context) {
			c.Read(x) // stamps r_orec[x]
		})
		close(done)
	}()
	<-inCS

	finished := make(chan struct{})
	go func() {
		writer.Atomic(func(c core.Context) { c.Write(x, 9) })
		close(finished)
	}()
	select {
	case <-finished:
		t.Fatal("slow-path writer committed against a holder that read the address")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-finished
	<-done
	if m.Load(x) != 9 {
		t.Fatalf("write lost after release: %d", m.Load(x))
	}
}

// TestFGTLEReadOfHolderReadIsAllowed: read-read sharing with the lock
// holder must commit on the slow path (only w_orecs gate reads).
func TestFGTLEReadOfHolderReadIsAllowed(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewFGTLE(m, 256, core.Policy{})
	x := m.AllocLines(1)
	m.Store(x, 5)

	holder := meth.NewThread()
	reader := meth.NewThread()
	inCS := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		holdLock(holder, inCS, release, func(c core.Context) {
			c.Read(x)
		})
		close(done)
	}()
	<-inCS

	var got uint64
	finished := make(chan struct{})
	go func() {
		reader.Atomic(func(c core.Context) { got = c.Read(x) })
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("read-read sharing with the holder blocked")
	}
	if got != 5 || reader.Stats().SlowCommits != 1 {
		t.Fatalf("got=%d slowCommits=%d", got, reader.Stats().SlowCommits)
	}
	close(release)
	<-done
}

// TestFGTLEOneOrecBlocksEverything: with a single orec, any holder access
// owns the whole address space, so no slow-path transaction that touches
// data can commit (§6.2.1's FG-TLE(1) analysis).
func TestFGTLEOneOrecBlocksEverything(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewFGTLE(m, 1, core.Policy{})
	x := m.AllocLines(1)
	y := m.AllocLines(1)

	holder := meth.NewThread()
	reader := meth.NewThread()
	inCS := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		holdLock(holder, inCS, release, func(c core.Context) {
			c.Write(x, 1) // stamps THE w_orec
		})
		close(done)
	}()
	<-inCS

	finished := make(chan struct{})
	go func() {
		reader.Atomic(func(c core.Context) { c.Read(y) }) // disjoint data, same orec
		close(finished)
	}()
	select {
	case <-finished:
		t.Fatal("FG-TLE(1) allowed a slow-path commit despite a holder write")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-finished
	<-done
}

// TestStoresPerLockSection counts what the instrumented lock path costs in
// plain stores, exactly: one thread runs 20 000 HTM-unfriendly updates of a
// seeded 8192-key AVL set, so every operation ends in a lock section, and
// every plain store — acquire, release, epoch bumps, orec stamps, data —
// ticks the heap's clock once while nothing else does. FG-TLE stamped one
// orec per word touched (45.9 stores a section), then one per cache line
// (22.3), and 13.7 of those were r-orecs, which only a slow-path writer
// reads: with none about, the holder is left with TLE's stores, its two
// epoch bumps and 1.44 w-orec stamps. Both modes carry a lower bound, so a
// holder that stopped stamping w-orecs too does not pass. The admitting row
// is reached the way production reaches it — a writing slow attempt beside
// a held lock, every 32 sections, which is as long as one keeps a holder
// admitting — and its stores are not counted.
func TestStoresPerLockSection(t *testing.T) {
	for _, tc := range []struct {
		name, method string
		slowWriters  bool
		min, max     float64
	}{
		{"TLE", "TLE", false, 5.07, 5.27}, // acquire + release + the update's own stores
		{"FG-TLE(256) readers only", "FG-TLE(256)", false, 8.55, 8.75},
		{"FG-TLE(256) writers admitted", "FG-TLE(256)", true, 22.2, 22.5},
	} {
		m, set, meth := fig12Set(tc.method)
		lock := meth.(interface{ Lock() *spinlock.Lock }).Lock()
		scratch := m.AllocLines(1)
		holder, writer := meth.NewThread(), meth.NewThread()
		update := harness.NewUnfriendlySetWorker(set, holder, fig12Keys, true)
		r := rng.NewXoshiro256(4) // harness.Run's stream for thread 0 of seed 3
		var stores uint64
		for i := 0; i < 20000; i++ {
			if tc.slowWriters && i%32 == 0 {
				lock.Acquire()
				writer.Atomic(func(c core.Context) { c.Write(scratch, 1) })
				lock.Release()
			}
			before := m.ClockLoad()
			update(r)
			stores += m.ClockLoad() - before
		}
		if runs := holder.Stats().LockRuns; runs != 20000 {
			t.Fatalf("%s: %d lock runs, want every one of 20000 operations", tc.name, runs)
		}
		if tc.slowWriters && writer.Stats().SlowCommits != 20000/32 {
			t.Fatalf("%s: %d of %d staged writers committed on the slow path", tc.name, writer.Stats().SlowCommits, 20000/32)
		}
		if got := float64(stores) / 20000; got < tc.min || got > tc.max {
			t.Errorf("%s: %.2f plain stores per lock section, want %.2f–%.2f", tc.name, got, tc.min, tc.max)
		}
	}
}

// TestSlowPathAttemptDoesNotAllocate: a slow-path Context is one pointer —
// the epoch snapshot and the orec count live in the thread — so a Contains
// that commits beside a held lock allocates nothing. (A Context of three
// words was boxed at every attempt.)
func TestSlowPathAttemptDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"FG-TLE(256)", "FG-TLE(adaptive)"} {
		m := mem.New(1 << 20)
		meth := harness.MustBuildMethod(name, m, core.Policy{})
		th := meth.NewThread()
		h := avl.New(m).NewHandle()
		for k := uint64(0); k < 512; k += 2 {
			h.Insert(th, k)
		}
		lock := meth.(interface{ Lock() *spinlock.Lock }).Lock()
		lock.Acquire()
		slow := th.Stats().SlowCommits
		var k uint64
		allocs := testing.AllocsPerRun(200, func() {
			k = (k + 7) % 512
			h.Contains(th, k)
		})
		lock.Release()
		if got := th.Stats().SlowCommits - slow; got != 201 {
			t.Fatalf("%s: %d of 201 Contains committed on the slow path", name, got)
		}
		if allocs != 0 {
			t.Errorf("%s: a slow-path Contains allocates %v objects, want 0", name, allocs)
		}
	}
}

// TestRWTLEEmptyCSCommitsOnSlowPath: an empty critical section is
// trivially read-only and must commit while the lock is held — this is
// exactly the §5 semantics difference RW-TLE exhibits too.
func TestRWTLEEmptyCSCommitsOnSlowPath(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewRWTLE(m, core.Policy{})
	holder := meth.NewThread()
	other := meth.NewThread()
	inCS := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		holdLock(holder, inCS, release, nil)
		close(done)
	}()
	<-inCS
	finished := make(chan struct{})
	go func() {
		other.Atomic(func(core.Context) {})
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("empty CS blocked under RW-TLE")
	}
	if other.Stats().SlowCommits != 1 {
		t.Fatalf("SlowCommits = %d, want 1", other.Stats().SlowCommits)
	}
	close(release)
	<-done
}

// TestRWTLELazySubscriptionBlocksReaders: with lazy subscription even
// read-only slow-path transactions must wait for the release.
func TestRWTLELazySubscriptionBlocksReaders(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewRWTLE(m, core.Policy{LazySubscription: true})
	x := m.AllocLines(1)
	holder := meth.NewThread()
	reader := meth.NewThread()
	inCS := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		holdLock(holder, inCS, release, nil)
		close(done)
	}()
	<-inCS
	finished := make(chan struct{})
	go func() {
		reader.Atomic(func(c core.Context) { c.Read(x) })
		close(finished)
	}()
	select {
	case <-finished:
		t.Fatal("lazy-subscribed reader committed while the lock was held")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-finished
	<-done
	if reader.Stats().SlowCommits != 0 {
		t.Fatalf("SlowCommits = %d, want 0 under lazy subscription", reader.Stats().SlowCommits)
	}
}

// TestPolicyAttemptsRespected: exactly Attempts fast-path tries happen
// before the lock path.
func TestPolicyAttemptsRespected(t *testing.T) {
	for _, attempts := range []int{1, 2, 7} {
		m := mem.New(1 << 16)
		meth := core.NewTLE(m, core.Policy{Attempts: attempts})
		th := meth.NewThread()
		th.Atomic(func(c core.Context) { c.Unsupported() })
		s := th.Stats()
		if int(s.FastAttempts) != attempts {
			t.Fatalf("attempts=%d: FastAttempts = %d", attempts, s.FastAttempts)
		}
		if s.LockRuns != 1 {
			t.Fatalf("attempts=%d: LockRuns = %d", attempts, s.LockRuns)
		}
	}
}

// TestTLENeverCommitsSlowPath: plain TLE has no slow path by definition.
func TestTLENeverCommitsSlowPath(t *testing.T) {
	m := mem.New(1 << 18)
	meth := core.NewTLE(m, core.Policy{})
	a := m.AllocLines(1)
	const goroutines = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	threads := make([]core.Thread, goroutines)
	for g := 0; g < goroutines; g++ {
		threads[g] = meth.NewThread()
	}
	for g := 0; g < goroutines; g++ {
		go func(id int, th core.Thread) {
			defer wg.Done()
			r := rng.NewXoshiro256(uint64(id))
			for i := 0; i < 500; i++ {
				unfriendly := r.Intn(10) == 0
				th.Atomic(func(c core.Context) {
					if unfriendly {
						c.Unsupported()
					}
					c.Write(a, c.Read(a)+1)
				})
			}
		}(g, threads[g])
	}
	wg.Wait()
	for i, th := range threads {
		if th.Stats().SlowCommits != 0 || th.Stats().SlowAttempts != 0 {
			t.Fatalf("thread %d: TLE recorded slow-path activity: %+v", i, *th.Stats())
		}
	}
}

// TestHLESingleAttemptThenLock: the HLE model makes exactly one
// speculative attempt.
func TestHLESingleAttemptThenLock(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewHLE(m, core.Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	th.Atomic(func(c core.Context) {
		c.Unsupported()
		c.Write(a, c.Read(a)+1)
	})
	s := th.Stats()
	if s.FastAttempts != 1 || s.LockRuns != 1 {
		t.Fatalf("FastAttempts=%d LockRuns=%d, want 1/1", s.FastAttempts, s.LockRuns)
	}
	if m.Load(a) != 1 {
		t.Fatal("effect lost")
	}
}

// TestHLECorrectnessConcurrent: HLE preserves atomicity like the others.
func TestHLECorrectnessConcurrent(t *testing.T) {
	m := mem.New(1 << 18)
	meth := core.NewHLE(m, core.Policy{})
	a := m.AllocLines(1)
	const goroutines = 6
	const perG = 800
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
		t.Fatalf("lost updates under HLE: %d, want %d", got, goroutines*perG)
	}
}

// TestPacerYieldsOnSchedule: the pacer must tick exactly every Every
// accesses (observable only as "it does not crash and counts right" —
// Gosched has no externally visible effect — so we check the arithmetic
// via a tiny Every across many ticks).
func TestPacerYieldsOnSchedule(t *testing.T) {
	p := &core.Pacer{Every: 3}
	for i := 0; i < 100; i++ {
		p.Tick() // must not panic, must not hang
	}
	disabled := &core.Pacer{}
	for i := 0; i < 100; i++ {
		disabled.Tick()
	}
}

// TestPacedMethodsStillCorrect: with aggressive interleaving every method
// still maintains atomicity.
func TestPacedMethodsStillCorrect(t *testing.T) {
	pol := core.Policy{HTM: htm.Config{InterleaveEvery: 1}}
	for _, name := range []string{"Lock", "TLE", "RW-TLE", "FG-TLE(16)"} {
		t.Run(name, func(t *testing.T) {
			m := mem.New(1 << 18)
			meth := methodByName(t, m, name, pol)
			a := m.AllocLines(1)
			const goroutines = 4
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
				t.Fatalf("lost updates with pacing: %d, want %d", got, goroutines*perG)
			}
		})
	}
}

// withSpurious returns p with a fault plan that aborts each transactional
// access with probability prob, from per-thread streams derived from seed.
func withSpurious(p core.Policy, prob float64, seed uint64) core.Policy {
	fault.NewDirector(fault.Plan{Seed: seed, AccessProb: prob}).Configure(&p)
	return p
}

// TestSpuriousInjectionDrivesFallback: with a high injected abort rate,
// operations land on the lock path and still execute correctly.
func TestSpuriousInjectionDrivesFallback(t *testing.T) {
	pol := withSpurious(core.Policy{}, 0.9, 3)
	m := mem.New(1 << 18)
	meth := core.NewFGTLE(m, 64, pol)
	set := avl.New(m)
	h := set.NewHandle()
	th := meth.NewThread()
	for k := uint64(0); k < 50; k++ {
		if !h.Insert(th, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	s := th.Stats()
	if s.LockRuns == 0 {
		t.Fatal("no lock fallbacks despite 90% injected abort rate")
	}
	if s.FastAborts[htm.Spurious] == 0 {
		t.Fatal("no spurious aborts recorded")
	}
	if err := set.CheckInvariants(core.Direct(m)); err != nil {
		t.Fatal(err)
	}
}

// TestMethodsShareNothing: two methods over the same heap use distinct
// locks; operations under one must not block the other.
func TestMethodsShareNothing(t *testing.T) {
	m := mem.New(1 << 18)
	m1 := core.NewTLE(m, core.Policy{})
	m2 := core.NewTLE(m, core.Policy{})
	if m1.Lock().Addr() == m2.Lock().Addr() {
		t.Fatal("two method instances share a lock word")
	}
}

// TestExecCountersStartALineIn pins the padding in front of Exec: threads are
// allocated back to back in size classes that are not multiples of the cache
// line, and only a full line between one allocation's end and the next Exec's
// first live field keeps a thread's counters off the line its neighbour's
// tail is written on.
func TestExecCountersStartALineIn(t *testing.T) {
	if off := unsafe.Offsetof(core.Exec{}.Tx); off < 64 {
		t.Fatalf("Exec's first live field is %d bytes in; it must be at least a 64-byte cache line", off)
	}
}
