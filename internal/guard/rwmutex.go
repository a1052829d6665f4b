package guard

import (
	"runtime"

	"rtle/internal/core"
	"rtle/internal/mem"
)

// RWMutex is a sync.RWMutex-shaped elision guard backed by the RW-TLE
// refinement (§3). Its lock state lives in simulated memory as two cache
// lines:
//
//	line 1: [writer lock word | write flag]   (deliberately co-located)
//	line 2: [reader count]
//
// Do (write section) speculates with both the writer word and the reader
// count subscribed, so a bracket writer *or* a bracket reader entering
// aborts it. RDo (read section) speculates with only the writer word
// subscribed while the lock is free; while a bracket/fallback writer
// holds the lock, RDo switches to the RW-TLE slow path — subscribe the
// write flag, run the body read-only, commit concurrently with the lock
// holder until its first write raises the flag. The flag shares the
// writer word's line so the release store also aborts slow-path
// subscribers: the eager switch back to the fast path (§6.3).
//
// The bracket forms are a real reader-writer lock: RLock/RUnlock keep a
// reader count writers wait out; Lock/Unlock is the writer acquisition
// whose Ctx raises the write flag on its first write, exactly like the
// RW-TLE lock path. Bracket sections never elide (Go cannot re-execute
// code between two calls after an abort); they interoperate with
// speculation through the subscriptions above.
//
// Create with NewRWMutex; the zero value is not usable.
type RWMutex struct {
	base

	// Bracket-reader start times (base.mu-guarded), paired LIFO.
	rstarts []int64
}

// NewRWMutex returns an RW-TLE-backed guard over m with NewMutex's policy.
// Its slow path (RDo while a writer holds the lock) honours the policy's
// LazySubscription; the guard turns nothing on by itself.
func NewRWMutex(m *mem.Memory, policy core.Policy) *RWMutex {
	g := &RWMutex{}
	g.init(m, "Guard(RW-TLE)", policy)
	g.readersAddr = m.AllocLines(1)
	return g
}

// FlagAddr returns the write-flag address (for tests).
func (g *RWMutex) FlagAddr() mem.Addr { return g.flag.Addr() }

// Do runs body as one atomic write section, eliding the writer lock when
// it can. body must access shared data only through the Context and must
// be re-executable.
func (g *RWMutex) Do(body func(core.Context)) { g.do(writer, body) }

// RDo runs body as one atomic read-only section. While the writer lock is
// free it speculates exactly like Do (minus the reader-count
// subscription: concurrent readers do not conflict); while a writer holds
// the lock it runs the RW-TLE slow path, committing concurrently with the
// lock holder until the write flag rises. After the attempt budget it
// falls back to a bracket reader acquisition, preserving reader-reader
// concurrency even in the fallback. A body that calls Context.Write
// aborts its speculative attempts and panics on the fallback path.
func (g *RWMutex) RDo(body func(core.Context)) { g.do(reader, body) }

// acquireReader performs the bracket-reader entry protocol: announce by
// incrementing the count, then re-check the writer word; if a writer got
// in first, withdraw and retry.
func (g *base) acquireReader() {
	for {
		g.lock.WaitUntilFree()
		g.m.FetchAdd(g.readersAddr, 1)
		if !g.lock.Held() {
			return
		}
		g.m.FetchAdd(g.readersAddr, ^uint64(0))
		runtime.Gosched()
	}
}

// releaseReader undoes acquireReader.
func (g *base) releaseReader() {
	g.m.FetchAdd(g.readersAddr, ^uint64(0))
}

// Lock acquires the guard as a pessimistic writer: it takes the writer
// lock and waits out the bracket readers, aborting every speculating
// section via their subscriptions. Access shared data through Ctx; its
// first Write raises the write flag, exactly like the RW-TLE lock path,
// so concurrent slow-path readers stay sound.
func (g *RWMutex) Lock() { g.enter(writer) }

// Unlock releases a Lock-acquired guard, lowering the write flag if the
// section raised it.
func (g *RWMutex) Unlock() { g.exit() }

// Ctx returns the writer-bracket Context. It must only be used between
// Lock and Unlock.
func (g *RWMutex) Ctx() core.Context { return g.holderCtx(writer) }

// RLock acquires the guard as a bracket reader. Reader sections run
// concurrently with each other and with speculative RDo sections; they
// conflict (by design) with writers, bracket and speculative alike.
// Access shared data through RCtx between RLock and RUnlock.
func (g *RWMutex) RLock() {
	g.acquireReader()
	g.brec.LockAcquired()
	// Bracket readers are anonymous (no per-section state survives
	// RLock→RUnlock), so they account through the shared bracket
	// recorder under the guard's mutex; start times pair up LIFO, which
	// is exact for nested sections and approximate for overlapping ones.
	g.mu.Lock()
	g.rstarts = append(g.rstarts, g.brec.Begin())
	g.mu.Unlock()
}

// RUnlock releases an RLock-acquired guard and retires the section.
func (g *RWMutex) RUnlock() {
	g.mu.Lock()
	n := len(g.rstarts)
	if n == 0 {
		g.mu.Unlock()
		panic("guard: RUnlock of RLock-free RWMutex")
	}
	t0 := g.rstarts[n-1]
	g.rstarts = g.rstarts[:n-1]
	g.brec.LockCommit(t0)
	g.mu.Unlock()
	g.releaseReader()
}

// RCtx returns the read-only Context bracket-reader sections access
// shared data through. Its Write panics: read sections do not write.
func (g *RWMutex) RCtx() core.Context { return readOnly{core.Direct(g.m)} }
