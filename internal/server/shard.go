package server

import (
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/repl"
)

// shard is one independent serving partition: its own simulated heap, ADT
// instance, synchronization method, and pool of sections. The
// key-hash router sends every single-key operation to exactly one shard,
// so shards never share simulated memory and their method instances never
// contend — the serving-layer analogue of the paper's fine-grained
// refinement, applied one level up: partition first, elide within the
// partition.
type shard struct {
	id     int
	mem    *mem.Memory
	adt    *adt
	method core.Method

	// secs is the shard's pool of Config.Workers sections, each on its own
	// core.Thread: at most that many fast-path blocks run on the shard at
	// once. A connection's reader borrows one to execute the run it
	// admitted and returns it before anything is written, so a section is
	// never held across I/O; a reader that finds the pool empty waits.
	secs chan *section

	// gate is the shard's drain gate, the fast/slow-path split at the
	// serving layer: readers hold it shared around every atomic block (the
	// speculative common case, arbitrarily concurrent), while a reader
	// running a cross-shard operation holds every involved shard's gate
	// exclusively — in ascending shard order, so two cross-shard operations
	// can never deadlock — which quiesces those shards for the duration of
	// the multi-shard operation.
	gate sync.RWMutex

	m *ShardMetrics

	// logMu serializes replicated fast-path commits on this shard: held
	// around the whole gate region (RLock, atomic block, log append) so an
	// entry's log position always matches its commit order — the invariant
	// replica replay rests on. Commits on different shards never share a
	// logMu, so cross-shard concurrency is preserved; within a shard,
	// replication trades the fast path's commit concurrency for a sound
	// log, and only when replication is enabled.
	logMu sync.Mutex

	// lastSeq is the latest log sequence appended by a commit involving
	// this shard — the barrier a sync-mode read-only block waits on (reads
	// are never logged, but must not be answered ahead of the acknowledged
	// writes they observed).
	lastSeq atomic.Uint64

	// Slow-path execution state: one method thread and executor per shard,
	// touched only while gate is held exclusively, so they need no further
	// synchronization.
	slowThread core.Thread
	slowEx     *executor
}

// execute runs a run's admitted tasks ts, in order, on the calling reader,
// against tp, the generation that admitted them. Each stretch ts[i:end] of
// consecutive tasks on one shard borrows one of the shard's sections and
// moves the shard's gauges once: its k tasks leave the backlog and count
// as in flight until the section goes back. Its single operations run as
// one group (a run holds at most Config.Coalesce operations, see
// readLoop), and a ping is answered in place and a batch runs as its own
// block, each ending the group before it. A cross-shard task (no shard)
// ends the stretch and runs once the section is back in its pool
// (runCross). Answers are staged on c until the burst ends (endBurst).
// Coalescing preserves linearizability: every grouped operation is
// pending (invoked, not yet answered) when the shared block commits, so
// placing them all at its commit point respects real-time order.
func (s *Server) execute(c *conn, tp *topology, ts []task) {
	for i := 0; i < len(ts); {
		sh := ts[i].sh
		if sh == nil {
			s.runCross(c, tp, &ts[i])
			i++
			continue
		}
		end := i + 1
		for end < len(ts) && ts[end].sh == sh {
			end++
		}
		k := int64(end - i)
		sec := <-sh.secs
		sh.m.queueDepth.Add(-k)
		sh.m.inflight.Add(k)
		g := i // the pending group is ts[g:i]
		for ; i < end; i++ {
			t := &ts[i]
			switch t.req.Op {
			case OpPing:
				s.runGroup(c, sh, sec, ts[g:i])
				s.encode(c, t, sec.results[:0], Response{ID: t.req.ID, Status: StatusOK})
				g = i + 1
			case OpBatch:
				s.runGroup(c, sh, sec, ts[g:i])
				s.runBatch(c, sh, sec, t)
				g = i + 1
			}
		}
		s.runGroup(c, sh, sec, ts[g:end])
		sh.m.inflight.Add(-k)
		sh.secs <- sec
	}
}

// section is what a reader runs its atomic blocks with: an executor (a
// handle per slot), a method thread, and the scratch a block needs, pooled
// on its shard for the generation's whole life. The block's body is bound
// once, here: Atomic
// is an interface call, so a body built per block would escape — one
// allocation per section, the serving path's only steady-state garbage.
type section struct {
	ex      *executor
	thread  core.Thread
	results []Result           // entry i's result, slot i
	replBuf []repl.Op          // one block's log ops, copied by the log on append
	staged  []BatchEntry       // a coalesced group's operations, staged for runSection
	entries []BatchEntry       // the block being run; body reads it
	body    func(core.Context) // exec, bound
}

// newSection builds one pooled block runner of sh, sized for blocks of up
// to slots operations.
//
//rtle:init
func newSection(sh *shard, slots int) *section {
	sec := &section{
		ex:      sh.adt.newExecutor(slots),
		thread:  sh.method.NewThread(),
		results: make([]Result, slots),
		replBuf: make([]repl.Op, 0, slots),
	}
	sec.body = sec.exec
	return sec
}

// exec is the atomic-block body: entry i runs in executor slot i and leaves
// its result in results[i]. Re-executable, as every body must be: a retry
// overwrites each slot.
func (sec *section) exec(c core.Context) {
	for i := range sec.entries {
		e := &sec.entries[i]
		sec.results[i] = sec.ex.run(c, i, e.Op, e.Arg1, e.Arg2, e.Arg3)
	}
}

// runSection executes entries inside one fast-path atomic block on sh under
// its shared gate and, on a replicating primary, appends the block's
// mutating ops to the log inside the gate region — the
// log-order-equals-gate-order invariant replica replay rests on. It returns
// the sync barrier: the commit's last log sequence (for a write), or the
// shard's latest logged sequence (for a sync-mode read-only block, which
// must not be answered ahead of the acknowledged writes it observed). Zero
// means no barrier.
func (s *Server) runSection(sh *shard, sec *section, entries []BatchEntry) uint64 {
	r := s.repl
	var ops []repl.Op
	if r != nil && r.primary() {
		ops = replBatchOps(sec.replBuf, entries)
	}
	sec.entries = entries
	var bar uint64
	start := time.Now()
	if r == nil || !r.primary() || (ops == nil && !r.syncAck) {
		// Unreplicated (or async read-only): the bare fast path.
		sh.gate.RLock()
		sec.thread.Atomic(sec.body)
		sh.gate.RUnlock()
	} else {
		sh.logMu.Lock()
		sh.gate.RLock()
		sec.thread.Atomic(sec.body)
		if ops != nil {
			bar = r.append(ops)
			sh.lastSeq.Store(bar)
		} else {
			bar = sh.lastSeq.Load()
		}
		sh.gate.RUnlock()
		sh.logMu.Unlock()
	}
	sh.sectionDone(start)
	for i := range entries {
		sec.ex.after(i, entries[i].Op, sec.results[i])
	}
	return bar
}

// runGroup executes every task of group inside one atomic block on sh and
// stages their answers on c, raising the burst's sync barrier to the
// block's. An empty group runs nothing.
func (s *Server) runGroup(c *conn, sh *shard, sec *section, group []task) {
	if len(group) == 0 {
		return
	}
	sec.staged = sec.staged[:0]
	for i := range group {
		r := &group[i].req
		sec.staged = append(sec.staged, BatchEntry{Op: r.Op, Arg1: r.Arg1, Arg2: r.Arg2, Arg3: r.Arg3})
	}
	c.bar = max(c.bar, s.runSection(sh, sec, sec.staged))
	if len(group) > 1 {
		sh.m.coalesced.Add(uint64(len(group)))
	}
	for i := range group {
		t := &group[i]
		s.encode(c, t, sec.results[i:i+1], Response{ID: t.req.ID, Status: StatusOK})
	}
}

// runBatch executes one single-shard client batch inside one atomic block
// — the protocol's atomicity contract — and stages its per-entry results on
// c. Batches spanning several shards take the slow path instead.
func (s *Server) runBatch(c *conn, sh *shard, sec *section, t *task) {
	entries := t.req.Batch
	c.bar = max(c.bar, s.runSection(sh, sec, entries))
	sh.m.batchOps.Add(uint64(len(entries)))
	s.encode(c, t, sec.results[:len(entries)], Response{ID: t.req.ID, Status: StatusOK})
}

// replWait blocks until the barrier sequence is acknowledged (sync ack
// mode; a no-op otherwise). A false return means the wait was abandoned
// by server teardown: the caller must drop the answers it holds instead of
// sending them — the write may never reach a replica, so a response would
// be an acknowledgement the surviving side cannot honor. A reader waits
// once per burst (endBurst), for the highest barrier among the burst's
// blocks.
func (s *Server) replWait(bar uint64) bool {
	if s.repl == nil {
		return true
	}
	return s.repl.waitAcked(bar)
}

// replAppendSlow appends one slow-path block's mutating ops while the
// involved shards' gates are held exclusively, advancing every span's
// lastSeq. For a read-only block it returns the sync barrier instead: the
// latest logged sequence across the spans (stable, since the gates are
// held). Zero means no barrier.
//
//rtle:gated
func (s *Server) replAppendSlow(tp *topology, spans []int, ops []repl.Op) uint64 {
	r := s.repl
	if r == nil || !r.primary() {
		return 0
	}
	if len(ops) == 0 {
		if !r.syncAck {
			return 0
		}
		var bar uint64
		for _, k := range spans {
			if v := tp.shards[k].lastSeq.Load(); v > bar {
				bar = v
			}
		}
		return bar
	}
	seq := r.append(ops)
	for _, k := range spans {
		tp.shards[k].lastSeq.Store(seq)
	}
	return seq
}

// sectionDone folds one fast-path atomic block's wall time into the
// shard's metrics.
func (sh *shard) sectionDone(start time.Time) {
	sh.m.sections.Add(1)
	sh.m.observeService(time.Since(start).Nanoseconds())
}

// slowSectionDone folds one slow-path atomic block, run under the
// exclusive gate, into sh's metrics and the same service EWMA as the fast
// path's.
func (sh *shard) slowSectionDone(start time.Time) {
	sh.m.sections.Add(1)
	sh.m.slowBlocks.Add(1)
	sh.m.observeService(time.Since(start).Nanoseconds())
}

// lockSpans acquires the drain gates of the involved shards exclusively,
// in ascending shard order. All cross-shard operations order their
// acquisitions the same way, so no cycle — and therefore no deadlock — is
// possible; spans is ascending by construction (router.plan).
func (tp *topology) lockSpans(spans []int) {
	for _, k := range spans {
		tp.shards[k].gate.Lock()
	}
}

// unlockSpans releases the gates taken by lockSpans.
func (tp *topology) unlockSpans(spans []int) {
	for _, k := range spans {
		tp.shards[k].gate.Unlock()
	}
}

// runCross executes one cross-shard transfer or batch on the admitting
// reader, against tp, under the exclusive gates of every shard it spans,
// taken in ascending order. The entries execute strictly in batch order,
// each inside its own atomic block on its owning shard (execEntriesLocked);
// a single transfer is a one-entry batch, and logs as the same op. The
// gates make the per-entry blocks jointly atomic to every observer, so the
// client sees exactly a sequential, atomic execution of its request. The
// answer is staged on c with the rest of its burst, and the block's sync
// barrier folds into the burst's: endBurst waits and writes once. Cold:
// the result slice and the span set are allocated per operation.
func (s *Server) runCross(c *conn, tp *topology, t *task) {
	entries := t.req.Batch
	if t.req.Op != OpBatch {
		entries = []BatchEntry{{Op: t.req.Op, Arg1: t.req.Arg1, Arg2: t.req.Arg2, Arg3: t.req.Arg3}}
	}
	results := make([]Result, len(entries))
	var ops []repl.Op
	if r := s.repl; r != nil && r.primary() {
		ops = replBatchOps(nil, entries)
	}
	tp.lockSpans(t.spans)
	s.execEntriesLocked(tp, entries, results)
	bar := s.replAppendSlow(tp, t.spans, ops)
	tp.unlockSpans(t.spans)

	s.metrics.crossOps.Add(uint64(len(entries)))
	c.bar = max(c.bar, bar)
	s.encode(c, t, results, Response{ID: t.req.ID, Status: StatusOK})
}

// crossTransfer runs the withdraw/deposit split of one cross-shard
// transfer: withdraw on the source shard, then deposit of the amount
// actually moved on the destination, each its own atomic block. The
// caller holds both shards' gates exclusively for the whole sequence, so
// no fast-path block (and hence no client-visible operation) can read
// either shard between the halves: the bank's conservation invariant is
// never visibly broken, exactly as if TransferCS had run in one block.
// The clamped result matches TransferCS exactly.
func (s *Server) crossTransfer(from, to *shard, src, dst, amount uint64) Result {
	var moved uint64
	start := time.Now()
	from.slowThread.Atomic(func(c core.Context) {
		moved = from.adt.withdrawCS(c, src, amount)
	})
	from.slowSectionDone(start)
	start = time.Now()
	to.slowThread.Atomic(func(c core.Context) {
		to.adt.depositCS(c, dst, moved)
	})
	to.slowSectionDone(start)
	return Result{Ret: moved, Ok: true}
}

// execEntriesLocked executes batch entries strictly in order, each inside
// its own atomic block on its owning shard (a cross-shard transfer as the
// crossTransfer split). The caller holds every involved shard's gate
// exclusively — runCross for client requests, applyEntry for replica
// replay, so both paths produce identical state transitions.
func (s *Server) execEntriesLocked(tp *topology, entries []BatchEntry, results []Result) {
	for i := range entries {
		e := &entries[i]
		a, b := tp.router.entryShards(e)
		if a != b {
			results[i] = s.crossTransfer(tp.shards[a], tp.shards[b], e.Arg1, e.Arg2, e.Arg3)
			continue
		}
		sh := tp.shards[a]
		start := time.Now()
		sh.slowThread.Atomic(func(c core.Context) {
			results[i] = sh.slowEx.run(c, i, e.Op, e.Arg1, e.Arg2, e.Arg3)
		})
		sh.slowSectionDone(start)
		sh.slowEx.after(i, e.Op, results[i])
	}
}
