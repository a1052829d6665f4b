package core_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// allMethods builds one instance of every synchronization method over m.
func allMethods(m *mem.Memory, p core.Policy) []core.Method {
	return []core.Method{
		core.NewLock(m, core.Policy{}),
		core.NewTLE(m, p),
		core.NewRWTLE(m, p),
		core.NewFGTLE(m, 1, p),
		core.NewFGTLE(m, 16, p),
		core.NewFGTLE(m, 256, p),
		core.NewAdaptiveFGTLE(m, p),
	}
}

func TestMethodNames(t *testing.T) {
	m := mem.New(1 << 16)
	want := []string{"Lock", "TLE", "RW-TLE", "FG-TLE(1)", "FG-TLE(16)", "FG-TLE(256)", "FG-TLE(adaptive)"}
	for i, meth := range allMethods(m, core.Policy{}) {
		if meth.Name() != want[i] {
			t.Errorf("method %d name %q, want %q", i, meth.Name(), want[i])
		}
	}
}

// TestSingleThreadCounter: each method must execute a read-modify-write
// critical section correctly single-threaded.
func TestSingleThreadCounter(t *testing.T) {
	m := mem.New(1 << 16)
	for _, meth := range allMethods(m, core.Policy{}) {
		t.Run(meth.Name(), func(t *testing.T) {
			a := m.AllocLines(1)
			th := meth.NewThread()
			for i := 0; i < 100; i++ {
				th.Atomic(func(c core.Context) {
					c.Write(a, c.Read(a)+1)
				})
			}
			if got := m.Load(a); got != 100 {
				t.Fatalf("counter = %d, want 100", got)
			}
			if th.Stats().Ops != 100 {
				t.Fatalf("Ops = %d, want 100", th.Stats().Ops)
			}
		})
	}
}

// TestSingleThreadAVLModel: each method drives the AVL set correctly
// against a model.
func TestSingleThreadAVLModel(t *testing.T) {
	for _, name := range []string{"Lock", "TLE", "RW-TLE", "FG-TLE(16)", "FG-TLE(adaptive)"} {
		t.Run(name, func(t *testing.T) {
			m := mem.New(1 << 20)
			meth := methodByName(t, m, name, core.Policy{})
			set := avl.New(m)
			h := set.NewHandle()
			th := meth.NewThread()
			model := map[uint64]bool{}
			r := rng.NewXoshiro256(3)
			for i := 0; i < 3000; i++ {
				key := r.Uint64n(64)
				switch r.Intn(3) {
				case 0:
					got := h.Insert(th, key)
					if got == model[key] {
						t.Fatalf("Insert(%d) = %v with model %v", key, got, model[key])
					}
					model[key] = true
				case 1:
					got := h.Remove(th, key)
					if got != model[key] {
						t.Fatalf("Remove(%d) = %v with model %v", key, got, model[key])
					}
					delete(model, key)
				default:
					if got := h.Contains(th, key); got != model[key] {
						t.Fatalf("Contains(%d) = %v, want %v", key, got, model[key])
					}
				}
			}
			if err := set.CheckInvariants(core.Direct(m)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func methodByName(t *testing.T, m *mem.Memory, name string, p core.Policy) core.Method {
	t.Helper()
	switch name {
	case "Lock":
		return core.NewLock(m, core.Policy{})
	case "TLE":
		return core.NewTLE(m, p)
	case "RW-TLE":
		return core.NewRWTLE(m, p)
	case "FG-TLE(1)":
		return core.NewFGTLE(m, 1, p)
	case "FG-TLE(16)":
		return core.NewFGTLE(m, 16, p)
	case "FG-TLE(256)":
		return core.NewFGTLE(m, 256, p)
	case "FG-TLE(adaptive)":
		return core.NewAdaptiveFGTLE(m, p)
	default:
		t.Fatalf("unknown method %q", name)
		return nil
	}
}

// TestConcurrentCounter: atomicity of increments under real concurrency,
// for every method.
func TestConcurrentCounter(t *testing.T) {
	m := mem.New(1 << 18)
	for _, meth := range allMethods(m, core.Policy{}) {
		t.Run(meth.Name(), func(t *testing.T) {
			a := m.AllocLines(1)
			const goroutines = 6
			const perG = 400
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				th := meth.NewThread()
				go func(th core.Thread) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						th.Atomic(func(c core.Context) {
							c.Write(a, c.Read(a)+1)
						})
					}
				}(th)
			}
			wg.Wait()
			if got := m.Load(a); got != goroutines*perG {
				t.Fatalf("lost updates: %d, want %d", got, goroutines*perG)
			}
		})
	}
}

// TestConcurrentAVLWithLockHolders is the central barrier-correctness
// test: a mix of normal operations and HTM-unfriendly updates (which
// always fall back to the lock) runs concurrently. Under RW-TLE and
// FG-TLE, hardware transactions commit *while the lock is held*, so any
// defect in the write-flag or orec protocols corrupts the tree or loses
// the per-key accounting. The test checks structural invariants and exact
// net-effect accounting afterwards.
func TestConcurrentAVLWithLockHolders(t *testing.T) {
	const keyRange = 48
	const goroutines = 6
	const perG = 600
	for _, name := range []string{"TLE", "RW-TLE", "FG-TLE(1)", "FG-TLE(16)", "FG-TLE(256)", "FG-TLE(adaptive)"} {
		t.Run(name, func(t *testing.T) {
			m := mem.New(1 << 22)
			meth := methodByName(t, m, name, core.Policy{})
			set := avl.New(m)

			// Seed half the keys.
			initial := map[uint64]bool{}
			seedH := set.NewHandle()
			dc := core.Direct(m)
			for k := uint64(0); k < keyRange; k += 2 {
				seedH.InsertCS(dc, k)
				seedH.AfterInsert(true)
				initial[k] = true
			}

			deltas := make([][]int64, goroutines)
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				deltas[g] = make([]int64, keyRange)
				th := meth.NewThread()
				go func(id int, th core.Thread) {
					defer wg.Done()
					h := set.NewHandle()
					r := rng.NewXoshiro256(uint64(id) + 11)
					for i := 0; i < perG; i++ {
						key := r.Uint64n(keyRange)
						switch r.Intn(10) {
						case 0: // HTM-unfriendly update: forces the lock path
							insert := r.Intn(2) == 0
							var res bool
							th.Atomic(func(c core.Context) {
								c.Unsupported()
								if insert {
									res = h.InsertCS(c, key)
								} else {
									res = h.RemoveCS(c, key)
								}
							})
							if insert {
								h.AfterInsert(res)
								if res {
									deltas[id][key]++
								}
							} else {
								h.AfterRemove(res)
								if res {
									deltas[id][key]--
								}
							}
						case 1, 2:
							if h.Insert(th, key) {
								deltas[id][key]++
							}
						case 3, 4:
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

			if err := set.CheckInvariants(dc); err != nil {
				t.Fatalf("tree corrupted: %v", err)
			}
			final := map[uint64]bool{}
			for _, k := range set.Keys(dc) {
				final[k] = true
			}
			for k := uint64(0); k < keyRange; k++ {
				var net int64
				for g := 0; g < goroutines; g++ {
					net += deltas[g][k]
				}
				was, is := b2i(initial[k]), b2i(final[k])
				if is-was != net {
					t.Errorf("key %d: initial %d, final %d, but net successful ops %d — isolation violated", k, was, is, net)
				}
			}
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestConcurrentCounterMixedPaths is a regression test for a simulator
// atomicity hole: with a single hot counter and occasional HTM-unfriendly
// increments (lock holders), a slow-path commit could interleave between
// its validation and its publication with the lock holder's plain loads,
// losing updates. Exact counting across all paths must hold.
func TestConcurrentCounterMixedPaths(t *testing.T) {
	for _, name := range []string{"TLE", "RW-TLE", "FG-TLE(1)", "FG-TLE(256)", "FG-TLE(adaptive)"} {
		t.Run(name, func(t *testing.T) {
			m := mem.New(1 << 18)
			meth := methodByName(t, m, name, core.Policy{})
			a := m.AllocLines(1)
			const goroutines = 6
			const perG = 2000
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				th := meth.NewThread()
				go func(id int, th core.Thread) {
					defer wg.Done()
					r := rng.NewXoshiro256(uint64(id) + 101)
					for i := 0; i < perG; i++ {
						unfriendly := r.Intn(20) == 0
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
				t.Fatalf("lost updates across mixed paths: %d, want %d", got, goroutines*perG)
			}
		})
	}
}

// TestUnsupportedFallsToLock: an operation with an HTM-unfriendly
// instruction must complete via the lock after exhausting its attempts.
func TestUnsupportedFallsToLock(t *testing.T) {
	m := mem.New(1 << 16)
	for _, name := range []string{"TLE", "RW-TLE", "FG-TLE(16)"} {
		t.Run(name, func(t *testing.T) {
			meth := methodByName(t, m, name, core.Policy{Attempts: 3})
			a := m.AllocLines(1)
			th := meth.NewThread()
			th.Atomic(func(c core.Context) {
				c.Unsupported()
				c.Write(a, c.Read(a)+1)
			})
			s := th.Stats()
			if s.LockRuns != 1 {
				t.Fatalf("LockRuns = %d, want 1", s.LockRuns)
			}
			if s.FastAborts[htm.Unsupported] != 3 {
				t.Fatalf("unsupported fast aborts = %d, want 3", s.FastAborts[htm.Unsupported])
			}
			if m.Load(a) != 1 {
				t.Fatalf("critical section effect lost")
			}
		})
	}
}

// TestFastPathUsedWhenUncontended: without contention every op commits on
// the fast path and the lock is never taken.
func TestFastPathUsedWhenUncontended(t *testing.T) {
	m := mem.New(1 << 16)
	for _, name := range []string{"TLE", "RW-TLE", "FG-TLE(16)", "FG-TLE(adaptive)"} {
		t.Run(name, func(t *testing.T) {
			meth := methodByName(t, m, name, core.Policy{})
			a := m.AllocLines(1)
			th := meth.NewThread()
			for i := 0; i < 50; i++ {
				th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
			}
			s := th.Stats()
			if s.FastCommits != 50 {
				t.Fatalf("FastCommits = %d, want 50 (LockRuns %d, SlowCommits %d)", s.FastCommits, s.LockRuns, s.SlowCommits)
			}
		})
	}
}

// holdLock runs an atomic block that is guaranteed to execute on the lock
// path (Unsupported aborts every HTM attempt before the channel
// operations are reached), signals entry, and holds the critical section
// open until release is closed. It returns after the block commits.
func holdLock(th core.Thread, inCS chan<- struct{}, release <-chan struct{}, body func(core.Context)) {
	th.Atomic(func(c core.Context) {
		c.Unsupported() // never reached past this point on HTM
		if body != nil {
			body(c)
		}
		inCS <- struct{}{}
		<-release
	})
}

// TestRefinedSlowPathCommitsWhileLockHeld: the defining behaviour of
// refined TLE — a read-only operation completes on the slow path while
// another thread holds the lock. Plain TLE must instead wait.
func TestRefinedSlowPathCommitsWhileLockHeld(t *testing.T) {
	for _, name := range []string{"RW-TLE", "FG-TLE(16)"} {
		t.Run(name, func(t *testing.T) {
			m := mem.New(1 << 16)
			meth := methodByName(t, m, name, core.Policy{})
			data := m.AllocLines(1)
			m.Store(data, 77)

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

			// The lock is held; a read-only op must still complete.
			var got uint64
			finished := make(chan struct{})
			go func() {
				reader.Atomic(func(c core.Context) { got = c.Read(data) })
				close(finished)
			}()
			select {
			case <-finished:
			case <-time.After(5 * time.Second):
				t.Fatal("read-only operation did not complete while the lock was held")
			}
			if got != 77 {
				t.Fatalf("read %d, want 77", got)
			}
			if reader.Stats().SlowCommits != 1 {
				t.Fatalf("SlowCommits = %d, want 1 (the read must have used the instrumented slow path)", reader.Stats().SlowCommits)
			}
			close(release)
			<-done
		})
	}
}

// TestRWTLEWriterCannotCommitOnSlowPath: RW-TLE's slow path must reject
// transactions that write (Figure 2) — they wait for the lock release.
func TestRWTLEWriterCannotCommitOnSlowPath(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewRWTLE(m, core.Policy{})
	data := m.AllocLines(1)

	holder := meth.NewThread()
	writer := meth.NewThread()
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
		writer.Atomic(func(c core.Context) { c.Write(data, 5) })
		close(finished)
	}()
	// The writer must not complete while the lock is held.
	select {
	case <-finished:
		t.Fatal("RW-TLE writer committed while the lock was held")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never completed after lock release")
	}
	<-done
	if m.Load(data) != 5 {
		t.Fatalf("write lost: %d", m.Load(data))
	}
	if writer.Stats().SlowCommits != 0 {
		t.Fatalf("writer SlowCommits = %d, want 0", writer.Stats().SlowCommits)
	}
}

// TestRWTLEReaderAbortsOnceHolderWrites: a slow-path reader must not
// commit after the lock holder's first write (the write flag dooms it).
func TestRWTLEReaderAbortsOnceHolderWrites(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewRWTLE(m, core.Policy{})
	x := m.AllocLines(1)
	y := m.AllocLines(1)

	holder := meth.NewThread()
	reader := meth.NewThread()
	inCS := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		holdLock(holder, inCS, release, func(c core.Context) {
			c.Write(x, 1) // raises the write flag before we signal
		})
		close(done)
	}()
	<-inCS

	// The flag is set: a read-only slow-path op must NOT commit now; it
	// completes only after release.
	var bodyRuns atomic.Int32
	finished := make(chan struct{})
	go func() {
		reader.Atomic(func(c core.Context) {
			bodyRuns.Add(1)
			c.Read(y)
		})
		close(finished)
	}()
	select {
	case <-finished:
		t.Fatal("RW-TLE reader committed on the slow path after the holder wrote")
	case <-time.After(100 * time.Millisecond):
	}
	// While the flag is raised every slow-path attempt dies at its flag
	// subscription, before the body.
	if n := bodyRuns.Load(); n != 0 {
		t.Fatalf("reader body ran %d times while the write flag was raised, want 0", n)
	}
	close(release)
	<-finished
	<-done
	// It is the flag that held the reader back: it kept trying the slow
	// path and was doomed there. (SlowCommits may be 1: the holder lowers
	// the flag and then releases the lock, and an attempt that lands
	// between the two stores commits legally, after all its writes.)
	if reader.Stats().SlowAborts[htm.Explicit] == 0 {
		t.Fatal("reader booked no slow-path abort while the write flag was raised")
	}
}

// TestFGTLEConflictingSlowTxAborts: FG-TLE's orecs must block slow-path
// transactions that touch data the lock holder wrote, while allowing
// disjoint ones (with enough orecs).
func TestFGTLEConflictingSlowTxAborts(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewFGTLE(m, 256, core.Policy{})
	x := m.AllocLines(1) // written by the holder
	y := m.AllocLines(1) // disjoint

	holder := meth.NewThread()
	conflicting := meth.NewThread()
	disjoint := meth.NewThread()
	inCS := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		holdLock(holder, inCS, release, func(c core.Context) {
			c.Write(x, 42)
		})
		close(done)
	}()
	<-inCS

	// Disjoint read must commit on the slow path.
	var got uint64
	finished := make(chan struct{})
	go func() {
		disjoint.Atomic(func(c core.Context) { got = c.Read(y) })
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint slow-path transaction did not complete while lock held")
	}
	if disjoint.Stats().SlowCommits != 1 {
		t.Fatalf("disjoint SlowCommits = %d, want 1", disjoint.Stats().SlowCommits)
	}
	_ = got

	// Conflicting read (same address the holder wrote) must not commit
	// while the holder is mid-CS.
	conflictDone := make(chan struct{})
	go func() {
		conflicting.Atomic(func(c core.Context) { c.Read(x) })
		close(conflictDone)
	}()
	select {
	case <-conflictDone:
		t.Fatal("conflicting slow-path transaction committed against the lock holder")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-conflictDone
	<-done
}

// TestFGTLESlowTxSurvivesLockRelease verifies the §6.3 design difference:
// FG-TLE does not abort slow-path transactions when the lock is released
// (the epoch bump releases orecs without storing to them). We check it
// end-to-end: a disjoint slow-path read that starts while the lock is held
// and finishes after release still counts as a slow commit under FG-TLE.
func TestFGTLESlowTxSurvivesLockRelease(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewFGTLE(m, 16, core.Policy{})
	y := m.AllocLines(1)

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
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	reader.Atomic(func(c core.Context) { c.Read(y) })
	<-done
	s := reader.Stats()
	if s.SlowCommits+s.FastCommits != 1 {
		t.Fatalf("reader commits: slow %d fast %d, want exactly one", s.SlowCommits, s.FastCommits)
	}
}

// TestLazySubscriptionBlocksEmptyCS reproduces Figure 4's semantics test:
// with lazy subscription an empty critical section cannot complete while
// the lock is held, so the GoFlag synchronization pattern is safe; without
// it, the empty CS commits early (the documented §5 limitation).
func TestLazySubscriptionBlocksEmptyCS(t *testing.T) {
	run := func(lazy bool) (early bool, ptrSeen uint64, slowCommits uint64) {
		m := mem.New(1 << 16)
		meth := core.NewFGTLE(m, 16, core.Policy{LazySubscription: lazy})
		goFlag := m.AllocLines(1)
		ptr := m.AllocLines(1)

		t1 := meth.NewThread()
		t2 := meth.NewThread()
		release := make(chan struct{})
		inCS := make(chan struct{})
		done := make(chan struct{})
		go func() {
			holdLock(t1, inCS, release, func(c core.Context) {
				c.Write(goFlag, 1)
			})
			close(done)
		}()
		<-inCS
		// Thread 2 saw GoFlag == 1; it now runs the empty critical
		// section and then dereferences Ptr.
		finished := make(chan struct{})
		go func() {
			t2.Atomic(func(core.Context) {}) // empty CS
			close(finished)
		}()
		var v uint64
		select {
		case <-finished:
			early = true
			v = m.Load(ptr) // committed while lock held: sees whatever is there now (0)
			close(release)
		case <-time.After(100 * time.Millisecond):
			// Blocked, as lazy subscription requires. Finish the
			// holder's CS — it publishes Ptr before unlocking.
			close(release)
			<-finished
			v = m.Load(ptr)
		}
		<-done
		return early, v, t2.Stats().SlowCommits
	}

	// The holder writes Ptr after the barrier handshake; emulate the
	// paper's scenario by having holdLock's caller publish Ptr at
	// release time. Simplest faithful arrangement: Ptr is written by
	// the holder *after* t2's wait begins, i.e. right before release —
	// which holdLock cannot express. Instead we rely on the ordering:
	// with eager (non-lazy) slow path the empty CS commits while the
	// lock is held and Ptr is still 0; with lazy subscription it can
	// only commit after the critical section retires.
	if early, v, slow := run(false); !early || slow != 1 || v != 0 {
		t.Fatalf("without lazy subscription: early=%v slowCommits=%d ptr=%d, want true, 1 and 0 (empty CS completes early)", early, slow, v)
	}
	// §5 promises when the empty section finishes, not which path retires
	// it: a slow-path attempt that began under the lock and reaches its
	// lazy subscription just after the release commits legally as a
	// SlowCommit.
	if early, _, _ := run(true); early {
		t.Fatal("with lazy subscription: empty CS finished while the lock was held (must wait for release)")
	}
}

// TestAdaptiveSwitchesToTLEMode: with no slow-path traffic the adaptive
// variant should stop paying for instrumentation. The policy decides once
// per 64 lock-path executions, so the test makes a few windows of them.
func TestAdaptiveSwitchesToTLEMode(t *testing.T) {
	const ops = 200
	m := mem.New(1 << 18)
	meth := core.NewAdaptiveFGTLE(m, core.Policy{})
	a := m.AllocLines(1)
	th := meth.NewThread()
	for i := 0; i < ops; i++ {
		th.Atomic(func(c core.Context) {
			c.Unsupported()
			c.Write(a, c.Read(a)+1)
		})
	}
	if th.Stats().ModeSwitches == 0 {
		t.Fatal("adaptive method never switched modes despite zero slow-path commits")
	}
	if m.Load(a) != ops {
		t.Fatalf("counter = %d, want %d", m.Load(a), ops)
	}
}

// TestStatsMergeAllFields spot-checks Stats.Merge coverage.
func TestStatsMergeAllFields(t *testing.T) {
	a := core.Stats{Ops: 1, FastCommits: 2, SlowCommits: 3, LockRuns: 4,
		FastAttempts: 5, SlowAttempts: 6, SubscriptionAborts: 7,
		LockHoldNanos: 8, STMStarts: 9, STMCommitsHTM: 10,
		STMCommitsLock: 11, STMCommitsRO: 12, STMAborts: 13,
		Validations: 14, STMTimeNanos: 15, Resizes: 16, ModeSwitches: 17}
	b := a
	a.Merge(&b)
	if a.Ops != 2 || a.FastCommits != 4 || a.SlowCommits != 6 || a.LockRuns != 8 ||
		a.FastAttempts != 10 || a.SlowAttempts != 12 || a.SubscriptionAborts != 14 ||
		a.LockHoldNanos != 16 || a.STMStarts != 18 || a.STMCommitsHTM != 20 ||
		a.STMCommitsLock != 22 || a.STMCommitsRO != 24 || a.STMAborts != 26 ||
		a.Validations != 28 || a.STMTimeNanos != 30 || a.Resizes != 32 || a.ModeSwitches != 34 {
		t.Fatalf("merge incomplete: %+v", a)
	}
	if a.TotalCommits() != 4+6+8+20+22+24 {
		t.Fatalf("TotalCommits = %d", a.TotalCommits())
	}
}

// TestLockHoldTimeMeasured: lock-path runs must record hold time.
func TestLockHoldTimeMeasured(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewTLE(m, core.Policy{Attempts: 1})
	th := meth.NewThread()
	th.Atomic(func(c core.Context) {
		c.Unsupported()
		time.Sleep(2 * time.Millisecond)
	})
	if th.Stats().LockHoldNanos < int64(time.Millisecond) {
		t.Fatalf("LockHoldNanos = %d, want at least 1ms", th.Stats().LockHoldNanos)
	}
}

// TestFGTLEOrecCountValidation: invalid orec counts must panic.
func TestFGTLEOrecCountValidation(t *testing.T) {
	m := mem.New(1 << 16)
	for _, bad := range []int{0, 3, 100, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFGTLE(%d) did not panic", bad)
				}
			}()
			core.NewFGTLE(m, bad, core.Policy{})
		}()
	}
}
