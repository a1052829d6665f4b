// Package htm simulates best-effort hardware transactional memory over the
// simulated shared heap of package mem.
//
// The engine follows the TL2 recipe — snapshot a global clock at begin,
// validate each read against the snapshot, buffer writes, and at commit
// lock the write-set lines, revalidate the read set, and publish — which
// yields exactly the guarantees the paper's algorithms assume of real HTM:
//
//   - Strong atomicity per access: a non-transactional store (mem.Store)
//     bumps the line version, dooming every in-flight transaction that read
//     the line.
//   - Opacity: a transaction never observes a state newer than its
//     snapshot, so doomed transactions abort instead of computing on torn
//     data.
//   - Invisibility of speculative writes until commit.
//   - Best-effort completion: transactions can fail for data conflicts,
//     capacity overflow (bounded read/write sets, as an L1-bounded HTM),
//     explicit self-abort, "unsupported instructions" (the Unsupported
//     hook, modelling a divide-by-zero or syscall under RTM), and — when
//     an Injector is configured — spuriously.
//
// The read set costs what a cache's tracking costs real RTM: next to
// nothing per load. It is a log of the lines read, a repeat of the line
// read just before left out, which commit walks to revalidate. When the
// log reaches the read capacity it is folded, once per attempt, into a
// hash of its distinct lines, and from then on the hash enforces the limit
// exactly: a transaction aborts for capacity at the same read as if every
// read had been counted in distinct lines.
//
// The write set is one table of lines, as RTM's store buffer is: a
// WriteSet holds, for each written line in first-write order, its eight
// words, a mask of those written, and the pre-lock version commit takes.
// Capacity, commit's locking and validation, publication and rollback all
// work from it, and so do the buffered software sections of packages core,
// norec and rhnorec.
//
// What the engine deliberately does NOT provide is atomicity for a group of
// non-transactional accesses: the thread holding the lock in a TLE scheme
// executes plain loads and stores and receives no isolation from committing
// transactions. Real HTM has the same hole, and closing it is precisely the
// job of the RW-TLE and FG-TLE barriers in package core.
package htm

// The transaction engine manipulates the raw heap by definition; the
// txbody check (internal/analysis) does not apply here.
//
//rtle:engine

import (
	"fmt"
	"runtime"
	"slices"

	"rtle/internal/mem"
)

// AbortReason classifies the outcome of a transaction attempt. None means
// the transaction committed.
type AbortReason uint8

const (
	// None reports a successful commit.
	None AbortReason = iota
	// Conflict is a data conflict with a concurrent transaction or a
	// non-transactional store.
	Conflict
	// Capacity is a read- or write-set overflow.
	Capacity
	// Explicit is a self-abort requested by the transaction body (for
	// example an instrumentation barrier detecting an orec conflict).
	Explicit
	// Unsupported models an instruction that can never complete inside a
	// hardware transaction.
	Unsupported
	// Spurious is an injected fault (interrupt, false sharing, ...).
	Spurious

	// NumReasons is the number of distinct AbortReason values.
	NumReasons = int(Spurious) + 1
)

// String returns the reason's name.
func (r AbortReason) String() string {
	switch r {
	case None:
		return "none"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Explicit:
		return "explicit"
	case Unsupported:
		return "unsupported"
	case Spurious:
		return "spurious"
	default:
		return fmt.Sprintf("AbortReason(%d)", uint8(r))
	}
}

// Injector is the deterministic fault-injection hook a Tx consults at the
// points where real HTM faults manifest: transaction begin, each
// transactional access, and just before commit processing. This is the
// simulation's edge over real RTM — Haswell decides for itself when to
// abort spuriously or overflow, while a simulated Tx can be told, making
// the rarest interleavings reproducible on demand. internal/fault provides
// the standard plan-driven implementation.
//
// Each Tx owns a private Injector instance (built by Config.NewInjector),
// so implementations need no synchronization for per-thread state; shared
// coordination (conflict storms) happens behind the implementation's own
// atomics.
type Injector interface {
	// TxBegin is consulted once per attempt, after the clock snapshot.
	// A reason other than None aborts the attempt immediately (before
	// the body runs). Positive readLines/writeLines shrink the
	// attempt's effective capacity limits below the configured ones —
	// the "capacity squeeze" fault; zero keeps the configured limit.
	TxBegin() (readLines, writeLines int, reason AbortReason)
	// TxAccess is consulted before the nth (1-based) transactional
	// access of the attempt; write marks stores. A reason other than
	// None aborts the attempt.
	TxAccess(nth int, write bool) AbortReason
	// TxPreCommit is consulted after the body returns, before commit
	// locking and validation. A reason other than None aborts.
	TxPreCommit() AbortReason
}

// Config bounds a simulated transaction. The zero value selects defaults.
type Config struct {
	// ReadLines is the maximum number of distinct cache lines a
	// transaction may read (default 512, a 32 KB L1 of 64-byte lines).
	ReadLines int
	// WriteLines is the maximum number of distinct cache lines a
	// transaction may write (default 128, a store-buffer-bounded HTM).
	WriteLines int
	// NewInjector, if non-nil, builds the fault injector for each Tx
	// created with this Config (one private instance per Tx, so
	// per-thread injector state needs no locking). internal/fault's
	// Director.NewInjector is the standard factory.
	NewInjector func() Injector
	// InterleaveEvery, if positive, yields the goroutine every N
	// transactional accesses. This is concurrency virtualization for
	// hosts with fewer cores than worker threads: on real parallel
	// hardware transactions overlap in time and conflict; on a
	// single core a transaction usually runs to completion within its
	// scheduler slice and contention vanishes. Yielding inside the
	// transaction restores the overlap (see DESIGN.md §1.5). Zero
	// disables it.
	InterleaveEvery int
}

// DefaultReadLines and DefaultWriteLines are the capacity bounds used when
// Config fields are zero.
const (
	DefaultReadLines  = 512
	DefaultWriteLines = 128
)

// abortSignal is the private panic value used to unwind an aborting
// transaction back to Run.
type abortSignal struct{ reason AbortReason }

// Tx is a reusable transaction context bound to one thread. A Tx must not
// be shared between goroutines. Accessor methods (Read, Write, Abort,
// Unsupported) may only be called from inside the body passed to Run.
type Tx struct {
	// Txs are allocated back to back, one per thread, and every attempt
	// writes the struct's tail; as in core.Exec, a line of padding in front
	// keeps the previous Tx's tail off this one's read-mostly head.
	_ [64]byte

	// Read's fast path loads only the fields from here to slowRead, which
	// share the 64-byte line after the pad.
	m        *mem.Memory
	snapshot uint64
	// readLog is the read set: the lines read, in order, with a repeat of
	// the line before (lastLine) left out. Until it holds effReadLines
	// entries it is appended to; then it is folded into readLines once,
	// which holds the read set for the rest of the attempt (folded).
	readLog  []uint64
	lastLine uint64
	// effReadLines and effWriteLines are the attempt's capacity limits
	// (the injector may squeeze them below the configured ones at begin).
	effReadLines int
	// slowRead sends Read through readPrelude: set outside Run, on a
	// hooked Tx, and from the attempt's first Write on.
	slowRead bool
	folded   bool
	active   bool
	hooked   bool // any per-access hook configured: Read/Write call onAccess

	cfg      Config
	accesses int

	readLines *lineSet
	writes    WriteSet

	inj Injector

	effWriteLines int

	// lastInjected marks that the attempt's abort was forced by the
	// injector (injectAbort sets it as the abort starts to unwind).
	lastInjected bool
	// lastCommitVer is the serialization version of the last committed
	// attempt (see CommitVersion).
	lastCommitVer uint64
}

// checkAddressable panics if a heap of the given size has addresses the
// read/write-set keys cannot tell apart.
func checkAddressable(words uint64) {
	if words > maxWords {
		panic(fmt.Sprintf("htm: heap of %d words exceeds the %d the transaction sets can index (keys pack addr+1 into 32 bits)", words, uint64(maxWords)))
	}
}

// NewTx returns a transaction context over m with the given configuration.
// It panics if m is larger than the transaction sets can index.
func NewTx(m *mem.Memory, cfg Config) *Tx {
	checkAddressable(uint64(m.Size()))
	if cfg.ReadLines <= 0 {
		cfg.ReadLines = DefaultReadLines
	}
	if cfg.WriteLines <= 0 {
		cfg.WriteLines = DefaultWriteLines
	}
	t := &Tx{
		m:         m,
		cfg:       cfg,
		slowRead:  true,
		readLog:   make([]uint64, 0, cfg.ReadLines),
		readLines: newLineSet(cfg.ReadLines),
		writes:    NewWriteSet(cfg.WriteLines),
	}
	if cfg.NewInjector != nil {
		t.inj = cfg.NewInjector()
	}
	t.hooked = t.inj != nil || cfg.InterleaveEvery > 0
	return t
}

// Memory returns the heap this Tx operates on.
func (t *Tx) Memory() *mem.Memory { return t.m }

// Active reports whether a transaction is currently executing on t.
func (t *Tx) Active() bool { return t.active }

// Snapshot returns the clock snapshot of the current attempt. It is only
// meaningful while Active.
func (t *Tx) Snapshot() uint64 { return t.snapshot }

// LastAbortInjected reports whether the most recent Run's abort was forced
// by the configured Injector (false after a commit or an organic abort).
func (t *Tx) LastAbortInjected() bool { return t.lastInjected }

// CommitVersion returns the serialization version of the most recent
// committed Run: the global-clock value at which its writes were published,
// or — for a read-only transaction — its snapshot (a read-only transaction
// serializes at snapshot time). It orders committed transactions for
// opacity checking (package check): sorting write transactions by
// CommitVersion reproduces their publication order, and a read-only
// transaction serializes after exactly the writers whose version is <= its
// own. Only meaningful after Run returned None.
func (t *Tx) CommitVersion() uint64 { return t.lastCommitVer }

// Run executes body as one hardware-transaction attempt and returns None on
// commit or the abort reason. Speculative writes are discarded on abort.
// Run never retries: retry policy belongs to the caller, as with real RTM
// where XBEGIN's fallback path owns the decision.
//
// Panics raised by body that are not transaction aborts propagate to the
// caller after the speculative state is discarded.
func (t *Tx) Run(body func(*Tx)) (reason AbortReason) {
	if t.active {
		panic("htm: nested Run on the same Tx")
	}
	t.begin()
	defer func() {
		t.reset()
		if r := recover(); r != nil {
			if sig, ok := r.(abortSignal); ok {
				reason = sig.reason
				return
			}
			panic(r)
		}
	}()
	t.injectBegin()
	body(t)
	if t.inj != nil {
		if r := t.inj.TxPreCommit(); r != None {
			t.injectAbort(r)
		}
	}
	return t.commit()
}

func (t *Tx) begin() {
	t.active = true
	t.accesses = 0
	t.snapshot = t.m.ClockLoad()
	t.slowRead = t.hooked
	t.lastLine = noLine
	t.effReadLines = t.cfg.ReadLines
	t.effWriteLines = t.cfg.WriteLines
	t.lastInjected = false
}

// injectBegin consults the injector's begin hook: capacity squeezes shrink
// the attempt's effective limits (never past the configured caps — the
// line-set arenas are sized for those), and a returned reason aborts. It
// runs after Run's recovery handler is installed, so an injected begin
// abort is accounted like any other abort.
func (t *Tx) injectBegin() {
	if t.inj == nil {
		return
	}
	rl, wl, reason := t.inj.TxBegin()
	if rl > 0 && rl < t.effReadLines {
		t.effReadLines = rl
	}
	if wl > 0 && wl < t.effWriteLines {
		t.effWriteLines = wl
	}
	if reason != None {
		t.injectAbort(reason)
	}
}

// injectAbort unwinds the attempt with an injector-forced reason, marking it
// so LastAbortInjected can tell it from an organic abort of the same reason.
func (t *Tx) injectAbort(reason AbortReason) {
	t.lastInjected = true
	t.abort(reason)
}

func (t *Tx) reset() {
	t.active = false
	t.slowRead = true
	t.readLog = t.readLog[:0]
	if t.folded {
		t.readLines.reset()
		t.folded = false
	}
	t.writes.Reset()
}

// abort unwinds the current attempt with the given reason.
func (t *Tx) abort(reason AbortReason) {
	panic(abortSignal{reason})
}

// Abort self-aborts the current transaction (XABORT).
func (t *Tx) Abort() {
	t.mustBeActive("Abort")
	t.abort(Explicit)
}

// Unsupported models executing an instruction HTM cannot speculate through
// (divide-by-zero in the paper's §6.3 experiment, syscalls, ...). It always
// aborts the current attempt.
func (t *Tx) Unsupported() {
	t.mustBeActive("Unsupported")
	t.abort(Unsupported)
}

// InHTM reports true: a Tx is the fast path's access context
// (core.FastContext), which always runs inside a hardware transaction.
func (t *Tx) InHTM() bool { return true }

func (t *Tx) mustBeActive(op string) {
	if !t.active {
		panic("htm: " + op + " outside a transaction")
	}
}

// onAccess runs the per-access hooks: the injector and single-core
// concurrency virtualization (InterleaveEvery). Read and Write skip the call
// on a Tx that NewTx found to have neither.
func (t *Tx) onAccess(write bool) {
	t.accesses++
	if t.inj != nil {
		if r := t.inj.TxAccess(t.accesses, write); r != None {
			t.injectAbort(r)
		}
	}
	if n := t.cfg.InterleaveEvery; n > 0 && t.accesses%n == 0 {
		runtime.Gosched()
	}
}

// Read performs a transactional load of a word. It returns the
// transaction's own pending write if there is one. The line joins the read
// set; a version newer than the snapshot, a locked line, or read-set
// overflow aborts the attempt.
//
// On an unhooked Tx that has not written yet, a read is one flag test, the
// heap's Snap and, for a line other than the one read before, an append to
// the read log.
func (t *Tx) Read(a mem.Addr) uint64 {
	if t.slowRead {
		if v, ok := t.readPrelude(a); ok {
			return v
		}
	}
	v, meta, ok := t.m.Snap(a)
	if !ok || mem.VersionOf(meta) > t.snapshot {
		t.abort(Conflict)
	}
	if line := mem.LineOf(a); line != t.lastLine {
		if n := len(t.readLog); n < t.effReadLines {
			t.lastLine = line
			t.readLog = t.readLog[:n+1]
			t.readLog[n] = line
		} else {
			t.logFull(line)
		}
	}
	return v
}

// readPrelude is what Read does before the load when slowRead is set: it
// panics outside a transaction, runs the per-access hooks, and returns the
// attempt's pending write of a if there is one.
func (t *Tx) readPrelude(a mem.Addr) (uint64, bool) {
	t.mustBeActive("Read")
	if t.hooked {
		t.onAccess(false)
	}
	return t.writes.Get(a)
}

// noLine is lastLine at the start of an attempt: no line index is this
// large.
const noLine = ^uint64(0)

// logFull adds a line other than the last one read to the read set once
// the log holds effReadLines entries. The first time, it folds the log into
// readLines; from then on the hash decides membership and the capacity
// limit exactly, so an attempt folds at most once.
func (t *Tx) logFull(line uint64) {
	t.lastLine = line
	if !t.folded {
		for _, l := range t.readLog {
			t.readLines.add(l)
		}
		t.folded = true
	}
	if t.readLines.len() >= t.effReadLines && !t.readLines.contains(line) {
		if t.readLines.len() < t.cfg.ReadLines {
			// The set fits the configured limit: only the injector's
			// squeeze made this an overflow.
			t.injectAbort(Capacity)
		}
		t.abort(Capacity)
	}
	t.readLines.add(line)
}

// readSet returns the attempt's read lines: the log, which may repeat a
// line, or after a fold the distinct lines.
func (t *Tx) readSet() []uint64 {
	if t.folded {
		return t.readLines.members
	}
	return t.readLog
}

// Write performs a transactional store of a word. The value is buffered
// until commit; write-set overflow aborts the attempt.
func (t *Tx) Write(a mem.Addr, v uint64) {
	t.mustBeActive("Write")
	t.slowRead = true
	if t.hooked {
		t.onAccess(true)
	}
	if !t.writes.Put(a, v, t.effWriteLines) {
		if t.writes.Lines() < t.cfg.WriteLines {
			// The set fits the configured limit: only the injector's
			// squeeze made this an overflow.
			t.injectAbort(Capacity)
		}
		t.abort(Capacity)
	}
}

// ReadSetLines and WriteSetLines report the current footprint, in distinct
// lines. They are for tests: no adaptive policy calls them, and
// ReadSetLines counts the read log's distinct lines the slow way.
func (t *Tx) ReadSetLines() int {
	if t.folded {
		return t.readLines.len()
	}
	n := 0
	for i, line := range t.readLog {
		if !slices.Contains(t.readLog[:i], line) {
			n++
		}
	}
	return n
}

func (t *Tx) WriteSetLines() int { return t.writes.Lines() }

// commit attempts to make the attempt's writes visible atomically.
func (t *Tx) commit() AbortReason {
	w := &t.writes
	if w.Lines() == 0 {
		// Read-only transactions were validated read-by-read against
		// the snapshot; they serialize at snapshot time.
		t.lastCommitVer = t.snapshot
		return None
	}
	// Lock the write set, recording each line's pre-lock version in its
	// entry. Pure try-lock: any contention aborts, so there is no deadlock
	// and no ordering requirement.
	for i, line := range w.lines.members {
		mw := t.m.MetaLoad(line)
		if mem.Locked(mw) || !t.m.TryLockLine(line, mw) {
			t.rollbackLocks(i)
			return Conflict
		}
		ver := mem.VersionOf(mw)
		w.entries[i].ver = ver
		if ver > t.snapshot && slices.Contains(t.readSet(), line) {
			// A line we both read and wrote changed since we read it.
			t.rollbackLocks(i + 1)
			return Conflict
		}
	}
	// Take the commit version before validating the read set, as TL2
	// does: a transaction whose read we are about to overwrite validated
	// that line before we locked it, hence ticked before us. Ticking after
	// validation would leave two such commits' versions unordered, and
	// CommitVersion order is the serial order the opacity checker replays.
	wv := t.m.ClockTick()
	// Validate the read set. Every written line is locked by now, so an
	// unlocked line is one this attempt only read; a locked one passes
	// only if the lock is ours (validated during locking above).
	for _, line := range t.readSet() {
		mw := t.m.MetaLoad(line)
		if mem.Locked(mw) && w.lines.contains(line) {
			continue
		}
		if mem.Locked(mw) || mem.VersionOf(mw) > t.snapshot {
			t.rollbackLocks(w.Lines())
			return Conflict
		}
	}
	// Publish.
	w.ForEach(func(a mem.Addr, v uint64) { t.m.WordStore(a, v) })
	for _, line := range w.lines.members {
		t.m.UnlockLine(line, wv)
	}
	t.lastCommitVer = wv
	return None
}

// rollbackLocks releases the first n write-set lines, which a failed commit
// locked, restoring their pre-lock versions.
func (t *Tx) rollbackLocks(n int) {
	for i, line := range t.writes.lines.members[:n] {
		t.m.UnlockLine(line, t.writes.entries[i].ver)
	}
}
