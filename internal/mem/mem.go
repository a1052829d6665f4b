// Package mem provides the simulated word-addressable shared memory that
// underpins the HTM simulation.
//
// Real hardware transactional memory observes every load and store a core
// issues and detects conflicts at cache-line granularity. A software
// simulation can only observe traffic that flows through it, so every piece
// of shared state in this repository — data-structure nodes, locks, flags,
// ownership records — lives in a Memory heap and is accessed through it.
//
// The heap is an array of 64-bit words grouped into cache lines of
// WordsPerLine words. Each line carries a versioned lock word ("meta"):
// bit 0 is a lock bit used during non-transactional stores and transaction
// commits, and the remaining bits hold the version — the value of the
// global clock at the time of the line's last modification. Transactions
// (package htm) validate the version against a clock snapshot to obtain
// opacity, exactly as in the TL2 lineage of STM designs.
//
// Non-transactional accesses model what the paper calls uninstrumented code
// running outside any transaction (for example, the thread holding the
// lock): Load is a plain atomic load, and Store bumps the line version so
// that any in-flight transaction that read the line is doomed — the
// simulated analogue of HTM strong atomicity. Crucially, a sequence of
// Stores is NOT atomic as a group; nothing protects a multi-access critical
// section run by a lock holder. Providing that protection is the job of the
// RW-TLE and FG-TLE instrumentation barriers, as in the paper.
package mem

// This package IS the raw layer the static checks protect: its accessors
// are what everything else must route around, so the txbody check
// (internal/analysis) does not apply here.
//
//rtle:engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

const (
	// LineShift is log2(WordsPerLine).
	LineShift = 3
	// WordsPerLine is the number of 64-bit words per simulated cache
	// line: 8 words = 64 bytes, matching x86.
	WordsPerLine = 1 << LineShift
)

// Addr is a word address in a simulated heap. Address 0 is reserved as the
// nil pointer: the first line of the heap is never allocated.
type Addr uint64

// Nil is the null simulated address.
const Nil Addr = 0

// Memory is a simulated shared heap. All methods are safe for concurrent
// use. The zero value is not usable; call New.
//
// Every access by every thread loads the slice headers; every Store, CAS,
// FetchAdd and writing commit bumps the clock, every Alloc the cursor. In
// one 64-byte host cache line, each plain store cost every other thread a
// miss on its next access: a line of padding keeps the three apart.
type Memory struct {
	words []atomic.Uint64
	meta  []atomic.Uint64 // per line: version<<1 | lockbit
	_     [64]byte
	clock atomic.Uint64 // global version clock
	_     [64]byte
	next  atomic.Uint64 // bump-allocation cursor (in words)
}

// New returns a Memory with capacity for at least words 64-bit words,
// rounded up to a whole number of lines. The first line is reserved so that
// Addr 0 can serve as nil.
//
// On unix the words and meta arrays live outside the Go heap (heap_unix.go):
// they cost address space when mapped, resident memory only where touched,
// and are unmapped once the Memory is unreachable. Every method that
// indexes words or meta therefore ends with runtime.KeepAlive(m), so the
// mapping cannot be released in the middle of an access.
func New(words int) *Memory {
	if words < 2*WordsPerLine {
		words = 2 * WordsPerLine
	}
	lines := (words + WordsPerLine - 1) / WordsPerLine
	m := &Memory{}
	m.words, m.meta = mapHeap(m, lines)
	m.next.Store(WordsPerLine) // skip the nil line
	return m
}

// Size returns the heap capacity in words.
func (m *Memory) Size() int { return len(m.words) }

// Lines returns the number of cache lines in the heap.
func (m *Memory) Lines() int { return len(m.meta) }

// Allocated returns the number of words handed out so far (including the
// reserved nil line).
func (m *Memory) Allocated() int { return int(m.next.Load()) }

// LineOf returns the cache-line index of a word address.
func LineOf(a Addr) uint64 { return uint64(a) >> LineShift }

// Locked reports whether a meta word has its lock bit set.
func Locked(meta uint64) bool { return meta&1 != 0 }

// VersionOf extracts the version from a meta word.
func VersionOf(meta uint64) uint64 { return meta >> 1 }

// Alloc reserves n consecutive words and returns the address of the first.
// The words are zeroed (they are never reused by Alloc itself; data
// structures that recycle memory keep their own free lists, as a real
// allocator would). Alloc panics if the heap is exhausted — heaps are sized
// per experiment and exhaustion is a configuration bug, not a runtime
// condition callers can recover from meaningfully.
func (m *Memory) Alloc(n int) Addr {
	if n <= 0 {
		panic("mem: Alloc with non-positive size")
	}
	a := m.next.Add(uint64(n)) - uint64(n)
	if a+uint64(n) > uint64(len(m.words)) {
		panic(fmt.Sprintf("mem: heap exhausted (capacity %d words, requested %d at %d)", len(m.words), n, a))
	}
	return Addr(a)
}

// AllocAligned reserves n words starting on a cache-line boundary. It is
// used for data that must not share a line with neighbours (for example,
// the padded bank-account counters of the paper's §6.3 benchmark).
func (m *Memory) AllocAligned(n int) Addr {
	if n <= 0 {
		panic("mem: AllocAligned with non-positive size")
	}
	for {
		cur := m.next.Load()
		start := (cur + WordsPerLine - 1) &^ uint64(WordsPerLine-1)
		end := start + uint64(n)
		if end > uint64(len(m.words)) {
			panic(fmt.Sprintf("mem: heap exhausted (capacity %d words, aligned request %d)", len(m.words), n))
		}
		if m.next.CompareAndSwap(cur, end) {
			return Addr(start)
		}
	}
}

// AllocLines reserves n whole cache lines and returns the address of the
// first word of the first line.
func (m *Memory) AllocLines(n int) Addr {
	return m.AllocAligned(n * WordsPerLine)
}

// Load performs a non-transactional read of a word. It corresponds to an
// uninstrumented load executed outside any hardware transaction. It is
// atomic at word granularity but provides no snapshot consistency across
// multiple loads — exactly like a plain load on real hardware.
//
// Load never returns a value from the middle of a transaction commit: if
// the line is locked by a committing transaction (or a concurrent Store),
// it waits for the publication to finish. This preserves real HTM's
// single-instant commit semantics for non-transactional observers — a
// plain load on real hardware either precedes a transaction's commit
// entirely or sees all of that transaction's writes; without this wait, a
// lock-holding thread could read pre-commit data after the transaction
// had already validated, breaking the strong atomicity the TLE barrier
// protocols depend on.
func (m *Memory) Load(a Addr) uint64 {
	line := LineOf(a)
	for spins := 0; ; spins++ {
		m1 := m.meta[line].Load()
		if !Locked(m1) {
			v := m.words[a].Load()
			if m.meta[line].Load() == m1 {
				runtime.KeepAlive(m)
				return v
			}
		}
		if spins%32 == 31 {
			runtime.Gosched()
		}
	}
}

// Store performs a non-transactional write of a word. The line's version is
// advanced past the global clock so that every in-flight transaction whose
// read set includes the line will fail validation — the simulated analogue
// of HTM strong atomicity (a conflicting plain store aborts transactional
// readers). Store briefly locks the line to exclude committing
// transactions, mirroring the cache-coherence exclusivity of a real store.
func (m *Memory) Store(a Addr, v uint64) {
	line := LineOf(a)
	m.lockLine(line)
	m.words[a].Store(v)
	nv := m.clock.Add(1)
	m.meta[line].Store(nv << 1)
	runtime.KeepAlive(m)
}

// CAS performs a non-transactional compare-and-swap on a word, returning
// whether the swap happened. On success the line version is advanced as in
// Store. It models the atomic read-modify-write instructions lock
// implementations use.
func (m *Memory) CAS(a Addr, old, new uint64) bool {
	line := LineOf(a)
	mw := m.lockLine(line)
	if m.words[a].Load() != old {
		m.meta[line].Store(mw) // restore; no modification happened
		runtime.KeepAlive(m)
		return false
	}
	m.words[a].Store(new)
	nv := m.clock.Add(1)
	m.meta[line].Store(nv << 1)
	runtime.KeepAlive(m)
	return true
}

// FetchAdd atomically adds delta to a word and returns the new value,
// advancing the line version as in Store.
func (m *Memory) FetchAdd(a Addr, delta uint64) uint64 {
	line := LineOf(a)
	m.lockLine(line)
	nv := m.words[a].Load() + delta
	m.words[a].Store(nv)
	ver := m.clock.Add(1)
	m.meta[line].Store(ver << 1)
	runtime.KeepAlive(m)
	return nv
}

// lockLine spins until it owns the line's lock bit and returns the meta
// value observed before locking (with the lock bit clear).
func (m *Memory) lockLine(line uint64) uint64 {
	for spins := 0; ; spins++ {
		mw := m.meta[line].Load()
		if !Locked(mw) && m.meta[line].CompareAndSwap(mw, mw|1) {
			runtime.KeepAlive(m)
			return mw
		}
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
}

// --- Hooks for package htm -------------------------------------------------
//
// The transaction engine needs raw access to line metadata and the clock.
// These methods are exported for htm's use only; application code should
// never call them.

// MetaLoad returns the current meta word of a line.
func (m *Memory) MetaLoad(line uint64) uint64 {
	v := m.meta[line].Load()
	runtime.KeepAlive(m)
	return v
}

// TryLockLine attempts to set the lock bit of a line whose meta word was
// observed as observed (which must have the lock bit clear). It returns
// false if the meta word changed or is locked.
func (m *Memory) TryLockLine(line uint64, observed uint64) bool {
	if Locked(observed) {
		return false
	}
	ok := m.meta[line].CompareAndSwap(observed, observed|1)
	runtime.KeepAlive(m)
	return ok
}

// UnlockLine releases a line lock, installing version as the line's new
// version (callers pass the pre-lock version to undo, or a fresh clock
// value to publish).
func (m *Memory) UnlockLine(line uint64, version uint64) {
	m.meta[line].Store(version << 1)
	runtime.KeepAlive(m)
}

// Snap is the transaction engine's read of a word: it returns the word,
// the line's meta word loaded before it, and whether that meta word was
// unlocked and still in place after the load — that is, whether v is the
// line's content at version VersionOf(meta). It is small enough to inline
// into Tx.Read, which is its one caller.
func (m *Memory) Snap(a Addr) (v, meta uint64, ok bool) {
	mw := &m.meta[LineOf(a)]
	meta = mw.Load()
	v = m.words[a].Load()
	ok = !Locked(meta) && mw.Load() == meta
	runtime.KeepAlive(m)
	return v, meta, ok
}

// WordStore is a raw word write used by the transaction engine while it
// holds the line lock during commit.
func (m *Memory) WordStore(a Addr, v uint64) {
	m.words[a].Store(v)
	runtime.KeepAlive(m)
}

// ClockLoad returns the current global clock value.
func (m *Memory) ClockLoad() uint64 { return m.clock.Load() }

// ClockTick advances the global clock and returns the new value.
func (m *Memory) ClockTick() uint64 { return m.clock.Add(1) }
