package guard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func newHeap() *mem.Memory { return mem.New(1 << 16) }

// TestMutexDoCounter hammers one counter through Do from many goroutines
// and checks the total and the Stats accounting.
func TestMutexDoCounter(t *testing.T) {
	m := newHeap()
	g := NewMutex(m, core.Policy{HTM: htm.Config{InterleaveEvery: 4}})
	counter := m.AllocLines(1)

	const goroutines, opsEach = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				g.Do(func(c core.Context) {
					c.Write(counter, c.Read(counter)+1)
				})
			}
		}()
	}
	wg.Wait()

	if got := m.Load(counter); got != goroutines*opsEach {
		t.Fatalf("counter = %d, want %d", got, goroutines*opsEach)
	}
	s := g.Stats()
	if s.Ops != goroutines*opsEach {
		t.Fatalf("Stats.Ops = %d, want %d", s.Ops, goroutines*opsEach)
	}
	if s.FastCommits+s.SlowCommits+s.LockRuns != s.Ops {
		t.Fatalf("commit buckets %d+%d+%d do not cover %d ops",
			s.FastCommits, s.SlowCommits, s.LockRuns, s.Ops)
	}
}

// TestMutexBracketForms mixes Do with Lock/Unlock bracket sections.
func TestMutexBracketForms(t *testing.T) {
	m := newHeap()
	g := NewMutex(m, core.Policy{})
	counter := m.AllocLines(1)

	const goroutines, opsEach = 4, 300
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				if (id+j)%4 == 0 {
					g.Lock()
					c := g.Ctx()
					c.Write(counter, c.Read(counter)+1)
					g.Unlock()
				} else {
					g.Do(func(c core.Context) {
						c.Write(counter, c.Read(counter)+1)
					})
				}
			}
		}(i)
	}
	wg.Wait()

	if got := m.Load(counter); got != goroutines*opsEach {
		t.Fatalf("counter = %d, want %d", got, goroutines*opsEach)
	}
	if s := g.Stats(); s.Ops != goroutines*opsEach {
		t.Fatalf("Stats.Ops = %d, want %d", s.Ops, goroutines*opsEach)
	}
}

// TestRWMutexMixedForms mixes all four RWMutex forms over a pair of words
// whose invariant (a + b constant) every reader checks.
func TestRWMutexMixedForms(t *testing.T) {
	m := newHeap()
	g := NewRWMutex(m, core.Policy{HTM: htm.Config{InterleaveEvery: 4}})
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	const total = 10000
	m.Store(a, total)

	const goroutines, opsEach = 4, 400
	var wg sync.WaitGroup
	bad := make(chan uint64, goroutines*opsEach)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				switch (id + j) % 4 {
				case 0: // speculative write
					g.Do(func(c core.Context) {
						va := c.Read(a)
						if va > 0 {
							c.Write(a, va-1)
							c.Write(b, c.Read(b)+1)
						}
					})
				case 1: // bracket write
					g.Lock()
					c := g.Ctx()
					va := c.Read(a)
					if va > 0 {
						c.Write(a, va-1)
						c.Write(b, c.Read(b)+1)
					}
					g.Unlock()
				case 2: // speculative read
					g.RDo(func(c core.Context) {
						if sum := c.Read(a) + c.Read(b); sum != total {
							bad <- sum
						}
					})
				default: // bracket read
					g.RLock()
					c := g.RCtx()
					if sum := c.Read(a) + c.Read(b); sum != total {
						bad <- sum
					}
					g.RUnlock()
				}
			}
		}(i)
	}
	wg.Wait()
	close(bad)
	for sum := range bad {
		t.Fatalf("reader observed a+b = %d, want %d", sum, total)
	}
	if sum := m.Load(a) + m.Load(b); sum != total {
		t.Fatalf("final a+b = %d, want %d", sum, total)
	}
	if s := g.Stats(); s.Ops != goroutines*opsEach {
		t.Fatalf("Stats.Ops = %d, want %d", s.Ops, goroutines*opsEach)
	}
}

// TestRWMutexSlowPathUnderWriter checks that RDo sections commit on the
// instrumented slow path while a bracket writer holds the lock but has
// not yet written (the §3 scenario the refinement exists for).
func TestRWMutexSlowPathUnderWriter(t *testing.T) {
	m := newHeap()
	g := NewRWMutex(m, core.Policy{})
	word := m.AllocLines(1)
	m.Store(word, 42)

	g.Lock() // writer in, flag down: slow-path reads may commit
	var got uint64
	g.RDo(func(c core.Context) { got = c.Read(word) })
	if got != 42 {
		t.Fatalf("slow-path read %d, want 42", got)
	}
	s := g.Stats()
	if s.SlowCommits == 0 {
		t.Fatalf("expected a slow-path commit under the writer lock; stats %+v", s)
	}

	// Raise the flag; read-only speculation must now fail over to the
	// bracket-reader fallback... which blocks until Unlock, so check the
	// flag semantics directly instead: the slow attempt aborts.
	g.Ctx().Write(word, 7)
	if m.Load(g.FlagAddr()) == 0 {
		t.Fatal("writer Ctx did not raise the write flag")
	}
	g.Unlock()
	if m.Load(g.FlagAddr()) != 0 {
		t.Fatal("Unlock did not lower the write flag")
	}
	if m.Load(word) != 7 {
		t.Fatalf("word = %d after bracket write, want 7", m.Load(word))
	}
}

// TestRWMutexReadOnlyViolation pins the dynamic misuse checks: a Write in
// an RDo fallback panics, as does unbalanced bracket use.
func TestRWMutexReadOnlyViolation(t *testing.T) {
	m := newHeap()
	g := NewRWMutex(m, core.Policy{})
	word := m.AllocLines(1)

	mustPanic(t, "RCtx Write", func() { g.RCtx().Write(word, 1) })
	mustPanic(t, "Unlock of unlocked", func() { g.Unlock() })
	mustPanic(t, "RUnlock of unlocked", func() { g.RUnlock() })
	mustPanic(t, "Ctx outside Lock", func() { g.Ctx() })

	mg := NewMutex(m, core.Policy{})
	mustPanic(t, "Mutex Unlock of unlocked", func() { mg.Unlock() })
	mustPanic(t, "Mutex Ctx outside Lock", func() { mg.Ctx() })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestRetreatEngages drives a guard whose transactions always abort
// (injected capacity) and checks the retreat controller kicks in: mode
// switches recorded, and operations complete via the lock path anyway.
func TestRetreatEngages(t *testing.T) {
	m := newHeap()
	g := NewMutex(m, core.Policy{Attempts: 2, HTM: htm.Config{ReadLines: 1, WriteLines: 1}})
	counter := m.AllocLines(1)
	addrs := make([]mem.Addr, 8)
	for i := range addrs {
		addrs[i] = m.AllocLines(1)
	}
	const ops = 400
	for i := 0; i < ops; i++ {
		g.Do(func(c core.Context) {
			// Touch enough lines to blow the 1-line capacity every time.
			var sum uint64
			for _, a := range addrs {
				sum += c.Read(a)
			}
			c.Write(counter, c.Read(counter)+1+sum*0)
		})
	}
	if got := m.Load(counter); got != ops {
		t.Fatalf("counter = %d, want %d", got, ops)
	}
	s := g.Stats()
	if s.ModeSwitches == 0 {
		t.Fatalf("expected retreat mode switches under 100%% aborts; stats %+v", s)
	}
	if s.FastCommits != 0 {
		t.Fatalf("capacity-doomed workload fast-committed %d times", s.FastCommits)
	}
}

// TestRetreatRecovers checks the pause decays back once speculation
// becomes healthy again: after a doomed phase, a friendly phase should
// reach mostly fast commits.
func TestRetreatRecovers(t *testing.T) {
	m := newHeap()
	g := NewMutex(m, core.Policy{Attempts: 3})
	counter := m.AllocLines(1)
	addrs := make([]mem.Addr, 64)
	for i := range addrs {
		addrs[i] = m.AllocLines(1)
	}
	// Doomed phase: single-line capacity is impossible to respect.
	gDoomed := NewMutex(m, core.Policy{Attempts: 2, HTM: htm.Config{ReadLines: 1, WriteLines: 1}})
	for i := 0; i < 100; i++ {
		gDoomed.Do(func(c core.Context) {
			for _, a := range addrs[:4] {
				c.Read(a)
			}
		})
	}
	// Friendly phase on the healthy guard: all fast.
	before := g.Stats()
	for i := 0; i < 200; i++ {
		g.Do(func(c core.Context) { c.Write(counter, c.Read(counter)+1) })
	}
	after := g.Stats()
	fast := after.FastCommits - before.FastCommits
	if fast < 190 {
		t.Fatalf("healthy phase fast-committed only %d/200", fast)
	}
}

// stormInjector aborts every attempt at begin while the shared flag is up.
type stormInjector struct{ on *atomic.Bool }

func (in stormInjector) TxBegin() (int, int, htm.AbortReason) {
	if in.on.Load() {
		return 0, 0, htm.Spurious
	}
	return 0, 0, htm.None
}
func (stormInjector) TxAccess(int, bool) htm.AbortReason { return htm.None }
func (stormInjector) TxPreCommit() htm.AbortReason       { return htm.None }

// TestRetreatBatchedAcrossGoroutines: the retreat window is fed in
// per-goroutine batches, so when every attempt on every goroutine aborts
// the verdict may lag the window boundary — but by no more than what the
// goroutines can hold back: each less than a batch unflushed, plus the
// section it has in flight when the verdict lands. Once the aborts stop
// and the pause drains, the guard speculates again and stays there.
func TestRetreatBatchedAcrossGoroutines(t *testing.T) {
	const (
		goroutines = 3
		budget     = 2
		window     = 64
		pause      = 2048
		stormOps   = 200  // per goroutine; goroutines*stormOps < pause
		calmOps    = 2000 // per goroutine; goroutines*calmOps > pause
	)
	var storm atomic.Bool
	storm.Store(true)
	m := newHeap()
	g := NewMutex(m, core.Policy{Attempts: budget, HTM: htm.Config{
		NewInjector: func() htm.Injector { return stormInjector{&storm} },
	}})
	g.retreat.window, g.retreat.minPause, g.retreat.maxPause = window, pause, pause
	g.retreat.reset()
	var counters [goroutines]mem.Addr
	for i := range counters {
		counters[i] = m.AllocLines(1) // a line each: no organic conflicts
	}
	phase := func(ops int) {
		var wg sync.WaitGroup
		for _, a := range counters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < ops; j++ {
					g.Do(func(c core.Context) { c.Write(a, c.Read(a)+1) })
				}
			}()
		}
		wg.Wait()
	}

	phase(stormOps)
	s := g.Stats()
	if s.ModeSwitches != 1 || s.FastCommits != 0 {
		t.Fatalf("under 100%% aborts: ModeSwitches=%d FastCommits=%d, want one retreat and no commit", s.ModeSwitches, s.FastCommits)
	}
	// The pause outlasts the phase, so every attempt ever made precedes
	// the verdict or belongs to a section already past the retreat gate.
	// The unflushed counts live in the gthreads the guard has lent: at
	// most one per goroutine, unless the pool dropped some (the race
	// detector makes it drop a quarter of all Puts).
	lent := len(g.threads)
	if limit := uint64(window + lent*(g.retreat.batch+2*budget)); s.FastAttempts > limit {
		t.Fatalf("retreat took %d attempts over %d gthreads, want at most Window + a batch and a section per gthread = %d", s.FastAttempts, lent, limit)
	}

	// Sections that took the lock: those that spent their budget before
	// the verdict, then the pause; allow each goroutine one more for an
	// attempt that meets the last pessimistic section's lock.
	lockRuns := s.FastAttempts/budget + pause + goroutines

	storm.Store(false)
	phase(calmOps)
	s = g.Stats()
	if s.ModeSwitches != 2 {
		t.Fatalf("after the storm: ModeSwitches=%d, want 2 (one retreat, one return)", s.ModeSwitches)
	}
	if want := goroutines*(stormOps+calmOps) - lockRuns; s.FastCommits < want {
		t.Fatalf("after the storm: %d fast commits, want every section past the %d-op pause (>= %d)", s.FastCommits, pause, want)
	}
	for i, a := range counters {
		if got := m.Load(a); got != stormOps+calmOps {
			t.Fatalf("counter %d = %d, want %d", i, got, stormOps+calmOps)
		}
	}
}

// TestRetreatDropsCountsFromBeforeTheVerdict: when the verdict lands during
// an abort storm every other lent gthread still holds almost a batch of
// all-abort counts. They must not survive the pause: folded in with the
// first healthy sections they would fill a window at batch-1 aborts in
// batch attempts and send a guard that no longer aborts straight back.
func TestRetreatDropsCountsFromBeforeTheVerdict(t *testing.T) {
	var r retreat
	r.init()
	threads := make([]*gthread, 16)
	for i := range threads {
		threads[i] = &gthread{}
		r.record(threads[i], r.batch-1, r.batch-1) // one short of a flush
	}
	for r.remaining.Load() == 0 {
		r.record(threads[0], 1, 1)
	}
	for i := 0; !r.speculate(threads[i%len(threads)]); i++ {
	}
	for range 4 * retreatWindow {
		for _, th := range threads {
			r.record(th, 0, 1)
		}
	}
	if left := r.remaining.Load(); left != 0 {
		t.Fatalf("retreated again (%d ops) with no abort since the pause", left)
	}
	if p := r.pause.Load(); p != retreatMinPause {
		t.Fatalf("pause = %d after healthy windows, want it back at the minimum %d", p, retreatMinPause)
	}
}

// lockFaultCounter is a core.LockFaultHook that counts its calls.
type lockFaultCounter struct{ n atomic.Int64 }

func (c *lockFaultCounter) OnLockAcquired() { c.n.Add(1) }

// TestReaderSectionsFireLockFault: Policy.LockFault covers "every method's
// pessimistic path", and a reader-held section is one — a stalled reader is
// what a writer's drain loop and Do's reader-count subscription must
// survive. The hook fires once per RDo fallback and once per RLock.
func TestReaderSectionsFireLockFault(t *testing.T) {
	var hook lockFaultCounter
	m := newHeap()
	g := NewRWMutex(m, core.Policy{Attempts: 2, LockFault: &hook})
	word := m.AllocLines(1)

	g.RDo(func(c core.Context) {
		c.Unsupported() // aborts every hardware attempt; a no-op under the lock
		c.Read(word)
	})
	if s := g.Stats(); s.LockRuns != 1 || s.FastAttempts != 2 {
		t.Fatalf("RDo did not fall back after its budget: LockRuns=%d FastAttempts=%d, want 1/2", s.LockRuns, s.FastAttempts)
	}
	if got := hook.n.Load(); got != 1 {
		t.Fatalf("LockFault hook fired %d times for one RDo fallback, want 1", got)
	}

	g.RLock()
	g.RCtx().Read(word)
	g.RUnlock()
	if got := hook.n.Load(); got != 2 {
		t.Fatalf("LockFault hook fired %d times after one RDo fallback and one RLock, want 2", got)
	}
}

// beginCounter counts transaction begins, fast and slow alike.
type beginCounter struct{ n *atomic.Int64 }

func (in beginCounter) TxBegin() (int, int, htm.AbortReason) {
	in.n.Add(1)
	return 0, 0, htm.None
}
func (beginCounter) TxAccess(int, bool) htm.AbortReason { return htm.None }
func (beginCounter) TxPreCommit() htm.AbortReason       { return htm.None }

// TestRDoSlowAbortsSpendTheBudget pins the one place the guard's loop
// departs from core's on purpose: core does not charge slow-path aborts to
// the attempt budget (§6.2.1), RDo does, because its fallback is a shared
// reader acquisition and giving up is cheap. Beside a writer that has
// already written, a read section makes exactly budget slow attempts and
// then takes the reader lock once.
func TestRDoSlowAbortsSpendTheBudget(t *testing.T) {
	const budget = 3
	var begins atomic.Int64
	m := newHeap()
	g := NewRWMutex(m, core.Policy{Attempts: budget, HTM: htm.Config{
		NewInjector: func() htm.Injector { return beginCounter{&begins} },
	}})
	word := m.AllocLines(1)

	g.Lock()
	g.Ctx().Write(word, 7) // raises the flag: every slow attempt now aborts
	done := make(chan uint64)
	go func() {
		var got uint64
		g.RDo(func(c core.Context) { got = c.Read(word) })
		done <- got
	}()
	// Hold the lock until the reader has begun its last slow attempt; from
	// there it can only abort and queue up behind the writer.
	for begins.Load() < budget {
		runtime.Gosched()
	}
	g.Unlock()
	if got := <-done; got != 7 {
		t.Fatalf("read %d, want the writer's 7", got)
	}

	s := g.Stats()
	var slowAborts uint64
	for _, n := range s.SlowAborts {
		slowAborts += n
	}
	// Ops and LockRuns count the writer's bracket section too.
	if s.SlowAttempts != budget || slowAborts != budget || s.SlowCommits != 0 ||
		s.FastAttempts != 0 || s.LockRuns != 2 || s.Ops != 2 {
		t.Fatalf("SlowAttempts=%d slow aborts=%d SlowCommits=%d FastAttempts=%d LockRuns=%d Ops=%d, want %d/%d/0/0/2/2",
			s.SlowAttempts, slowAborts, s.SlowCommits, s.FastAttempts, s.LockRuns, s.Ops, budget, budget)
	}
}

// TestGuardSectionsDoNotAllocate: Do and RDo are concrete methods whose
// body stays on the caller's stack — the reason the guard keeps a loop of
// its own with its differences selected by direct calls. Routing body
// through a func-valued hook or an interface makes every call allocate its
// closure, which only a benchmark showed before.
func TestGuardSectionsDoNotAllocate(t *testing.T) {
	m := newHeap()
	word := m.AllocLines(1)
	mu := NewMutex(m, core.Policy{})
	rw := NewRWMutex(m, core.Policy{})
	// The race detector makes sync.Pool drop a quarter of all Puts; hand
	// the refill the same gthread back so a drop costs no allocation.
	for _, b := range []*base{&mu.base, &rw.base} {
		spare := b.newThread()
		b.pool.New = func() any { return spare }
	}
	delta := uint64(3) // a captured local: the closure is not static
	var sum uint64
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Mutex.Do", func() { mu.Do(func(c core.Context) { c.Write(word, c.Read(word)+delta) }) }},
		{"RWMutex.Do", func() { rw.Do(func(c core.Context) { c.Write(word, c.Read(word)+delta) }) }},
		{"RWMutex.RDo", func() { rw.RDo(func(c core.Context) { sum = c.Read(word) + delta }) }},
	} {
		if allocs := testing.AllocsPerRun(200, tc.run); allocs != 0 {
			t.Errorf("%s allocates %.0f times per section, want 0", tc.name, allocs)
		}
	}
	_ = sum
}

// TestStatsSurvivePoolDrop checks counters outlive pool eviction: Stats
// merges the registry, not the pool.
func TestStatsSurvivePoolDrop(t *testing.T) {
	m := newHeap()
	g := NewMutex(m, core.Policy{})
	counter := m.AllocLines(1)
	for i := 0; i < 50; i++ {
		g.Do(func(c core.Context) { c.Write(counter, c.Read(counter)+1) })
	}
	// Empty the pool behind the guard's back; the registry keeps refs.
	g.pool.New = nil
	for g.pool.Get() != nil {
	}
	if s := g.Stats(); s.Ops != 50 {
		t.Fatalf("Stats.Ops = %d after pool drain, want 50", s.Ops)
	}
}

// countersOp is one operation of the guard_counters shape: 90 % RDo summing
// four of the line-sized counters, 10 % Do incrementing one.
func countersOp(g *RWMutex, counters []mem.Addr, r *rng.Xoshiro256, sink *uint64) {
	at := r.Intn(len(counters))
	if r.Intn(100) < 90 {
		g.RDo(func(c core.Context) {
			var sum uint64
			for i := 0; i < 4; i++ {
				sum += c.Read(counters[(at+i)%len(counters)])
			}
			*sink = sum
		})
		return
	}
	g.Do(func(c core.Context) {
		a := counters[at]
		c.Write(a, c.Read(a)+1)
	})
}

// benchCounters times op from GOMAXPROCS goroutines over an RWMutex built
// with cfg and 64 line-sized counters; op's id numbers the goroutines from 1.
func benchCounters(b *testing.B, retreatOff bool, op func(g *RWMutex, counters []mem.Addr, id uint64, r *rng.Xoshiro256, sink *uint64)) {
	m := newHeap()
	g := NewRWMutex(m, core.Policy{})
	g.retreat.off = retreatOff
	counters := make([]mem.Addr, 64)
	for i := range counters {
		counters[i] = m.AllocLines(1)
	}
	var ids atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids.Add(1)
		r := rng.NewXoshiro256(id)
		var sink uint64
		for pb.Next() {
			op(g, counters, id, r, &sink)
		}
	})
	b.ReportMetric(float64(g.Stats().ModeSwitches), "mode-switches")
}

// BenchmarkRWMutexParallel is the guard_counters shape under go test, from
// GOMAXPROCS goroutines. Data conflicts are rare here, so what it times is
// the guard's fixed cost per section, including every line the goroutines
// share.
func BenchmarkRWMutexParallel(b *testing.B) {
	benchCounters(b, false, func(g *RWMutex, counters []mem.Addr, _ uint64, r *rng.Xoshiro256, sink *uint64) {
		countersOp(g, counters, r, sink)
	})
}

// BenchmarkRetreat is the retreat controller's ablation cell (EXPERIMENTS.md
// "A7"): four section mixes, each with the controller on and turned off
// (retreat.off, which nothing outside this benchmark sets). futile: every Do hits an instruction the HTM
// refuses, so each speculative attempt is wasted; futile_reader: one such
// writer beside RDo readers; hot: every Do increments one counter; healthy:
// the guard_counters shape, which never trips the controller. Needs -cpu 2
// or more; compare on and off from alternated runs only.
func BenchmarkRetreat(b *testing.B) {
	futile := func(g *RWMutex, counters []mem.Addr, r *rng.Xoshiro256) {
		a := counters[r.Intn(len(counters))]
		g.Do(func(c core.Context) {
			c.Unsupported()
			c.Write(a, c.Read(a)+1)
		})
	}
	shapes := []struct {
		name string
		op   func(g *RWMutex, counters []mem.Addr, id uint64, r *rng.Xoshiro256, sink *uint64)
	}{
		{"futile", func(g *RWMutex, counters []mem.Addr, _ uint64, r *rng.Xoshiro256, _ *uint64) {
			futile(g, counters, r)
		}},
		{"futile_reader", func(g *RWMutex, counters []mem.Addr, id uint64, r *rng.Xoshiro256, sink *uint64) {
			if id == 1 {
				futile(g, counters, r)
				return
			}
			a := counters[r.Intn(len(counters))]
			g.RDo(func(c core.Context) { *sink = c.Read(a) })
		}},
		{"hot", func(g *RWMutex, counters []mem.Addr, _ uint64, _ *rng.Xoshiro256, _ *uint64) {
			g.Do(func(c core.Context) { c.Write(counters[0], c.Read(counters[0])+1) })
		}},
		{"healthy", func(g *RWMutex, counters []mem.Addr, _ uint64, r *rng.Xoshiro256, sink *uint64) {
			countersOp(g, counters, r, sink)
		}},
	}
	for _, shape := range shapes {
		for _, mode := range []string{"on", "off"} {
			b.Run(shape.name+"/"+mode, func(b *testing.B) {
				benchCounters(b, mode == "off", shape.op)
			})
		}
	}
}
