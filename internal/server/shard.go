package server

import (
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/check"
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
	// admitted and returns it before anything is flushed, so a section is
	// never held across I/O; a reader that finds the pool empty waits.
	secs chan *section

	// gate is the shard's drain gate, the fast/slow-path split at the
	// serving layer: readers hold it shared around every atomic block (the
	// speculative common case, arbitrarily concurrent), while the
	// cross-shard slow path holds every involved shard's gate exclusively
	// — in ascending shard order, so two slow operations can never
	// deadlock — which quiesces those shards for the duration of the
	// multi-shard operation.
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

// execute runs a run's admitted fast-path tasks, chained from t, on the
// calling reader. Each stretch of consecutive tasks on one shard borrows
// one of the shard's sections; its single operations run as one group
// (a run holds at most Config.Coalesce operations, see readLoop), and a
// ping is answered in place and a batch runs as its own block, each ending
// the group before it. Answers are staged on c until the burst ends
// (endBurst). Coalescing preserves
// linearizability: every grouped operation is pending (invoked, not yet
// answered) when the shared block commits, so placing them all at its
// commit point respects real-time order.
//
//rtle:hotpath
func (s *Server) execute(c *conn, t *task) {
	for t != nil {
		sh := t.sh
		sec := <-sh.secs
		group := c.group[:0]
		for t != nil && t.sh == sh {
			// Detach before answering: encode recycles the header, next
			// included.
			nx := t.next
			t.next = nil
			sh.m.queueDepth.Add(-1)
			sh.m.inflight.Add(1)
			switch t.req.Op {
			case OpPing:
				s.runGroup(c, sh, sec, group)
				group = group[:0]
				c.staged = append(c.staged, s.encode(t, sec.results[:0], Response{ID: t.req.ID, Status: StatusOK}))
			case OpBatch:
				s.runGroup(c, sh, sec, group)
				group = group[:0]
				s.runBatch(c, sh, sec, t)
			default:
				group = append(group, t)
			}
			t = nx
		}
		s.runGroup(c, sh, sec, group)
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
//
//rtle:hotpath
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
//
//rtle:hotpath
func (s *Server) runGroup(c *conn, sh *shard, sec *section, group []*task) {
	if len(group) == 0 {
		return
	}
	sec.staged = sec.staged[:0]
	for _, t := range group {
		sec.staged = append(sec.staged, BatchEntry{Op: t.req.Op, Arg1: t.req.Arg1, Arg2: t.req.Arg2, Arg3: t.req.Arg3})
	}
	c.bar = max(c.bar, s.runSection(sh, sec, sec.staged))
	if len(group) > 1 {
		sh.m.coalesced.Add(uint64(len(group)))
	}
	for i, t := range group {
		c.staged = append(c.staged, s.encode(t, sec.results[i:i+1], Response{ID: t.req.ID, Status: StatusOK}))
	}
}

// runBatch executes one single-shard client batch inside one atomic block
// — the protocol's atomicity contract — and stages its per-entry results on
// c. Batches spanning several shards take the slow path instead.
//
//rtle:hotpath
func (s *Server) runBatch(c *conn, sh *shard, sec *section, t *task) {
	entries := t.req.Batch
	c.bar = max(c.bar, s.runSection(sh, sec, entries))
	sh.m.batchOps.Add(uint64(len(entries)))
	c.staged = append(c.staged, s.encode(t, sec.results[:len(entries)], Response{ID: t.req.ID, Status: StatusOK}))
}

// replWait blocks until the barrier sequence is acknowledged (sync ack
// mode; a no-op otherwise). A false return means the wait was abandoned
// by server teardown: the caller must drop the answers it holds instead of
// sending them — the write may never reach a replica, so a response would
// be an acknowledgement the surviving side cannot honor. The slow worker
// waits once per task; a reader once per burst (endBurst), for the highest
// barrier among the burst's blocks.
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

// slowSectionDone folds one slow-path atomic block into sh's metrics.
// Slow blocks run under the exclusive gate and feed the same service EWMA:
// the retry-after hint prices total shard occupancy.
func (sh *shard) slowSectionDone(start time.Time) {
	sh.m.sections.Add(1)
	sh.m.slowBlocks.Add(1)
	sh.m.observeService(time.Since(start).Nanoseconds())
}

// slowWorker executes one generation's cross-shard tasks. One goroutine
// suffices: slow operations serialize on the exclusive gates anyway, and
// keeping the pool at one bounds the number of shards a misbehaving
// workload can quiesce at once.
func (s *Server) slowWorker(tp *topology) {
	defer s.workersWG.Done()
	results := make([]Result, MaxBatchOps)
	for t := range tp.slowQueue {
		s.metrics.slowDepth.Add(-1)
		switch t.req.Op {
		case check.OpTransfer:
			s.runSlowTransfer(tp, t)
		case OpBatch:
			s.runSlowBatch(tp, t, results)
		default:
			// The router only sends transfers and batches here; anything
			// else is a routing bug surfaced loudly in tests.
			s.reject(t.c, t.req.ID, StatusBad, "internal: single-shard op on slow path")
			s.discard(t)
		}
	}
}

// lockSpans acquires the drain gates of the involved shards exclusively,
// in ascending shard order. All cross-shard operations order their
// acquisitions the same way, so no cycle — and therefore no deadlock — is
// possible; spans is ascending by construction (router.plan).
//
//rtle:gatelock
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

// runSlowTransfer moves funds between accounts owned by two different
// shards: withdraw on the source shard, then deposit on the destination,
// each its own atomic block, both under the two shards' exclusive gates.
// Holding both gates for the whole sequence makes the pair observably
// atomic — no fast-path block (and hence no client-visible operation)
// can read either shard between the halves — so the bank's conservation
// invariant is never visibly broken, exactly as if TransferCS had run in
// one block.
func (s *Server) runSlowTransfer(tp *topology, t *task) {
	from := tp.shards[tp.router.shardOf(t.req.Arg1)]
	to := tp.shards[tp.router.shardOf(t.req.Arg2)]

	tp.lockSpans(t.spans)
	res := s.crossTransfer(from, to, t.req.Arg1, t.req.Arg2, t.req.Arg3)
	var bar uint64
	if r := s.repl; r != nil && r.primary() {
		bar = s.replAppendSlow(tp, t.spans, []repl.Op{{
			Code: uint8(check.OpTransfer),
			Arg1: t.req.Arg1, Arg2: t.req.Arg2, Arg3: t.req.Arg3,
		}})
	}
	tp.unlockSpans(t.spans)

	s.metrics.crossOps.Add(1)
	if !s.replWait(bar) {
		s.discard(t)
		return
	}
	s.respond(t, []Result{res}, Response{ID: t.req.ID, Status: StatusOK})
}

// crossTransfer runs the withdraw/deposit split of one cross-shard
// transfer: withdraw on the source shard, then deposit of the amount
// actually moved on the destination, each its own atomic block. The
// caller holds both shards' gates exclusively, which is what makes the
// two blocks observably one transfer (see runSlowTransfer). The clamped
// result matches TransferCS exactly.
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

// runSlowBatch executes a batch whose entries span several shards. All
// involved shards' gates are held exclusively for the whole batch, then
// the entries execute strictly in batch order, each inside its own
// atomic block on its owning shard — a cross-shard transfer entry as the
// crossTransfer withdraw/deposit split, since its two accounts live in
// different shards' heaps. The gates make the per-entry blocks jointly
// atomic to every observer, so the client sees exactly a sequential,
// atomic execution of its batch.
func (s *Server) runSlowBatch(tp *topology, t *task, results []Result) {
	entries := t.req.Batch
	spans := t.spans

	tp.lockSpans(spans)
	s.execEntriesLocked(tp, entries, results)
	var ops []repl.Op
	if r := s.repl; r != nil && r.primary() {
		ops = replBatchOps(nil, entries)
	}
	bar := s.replAppendSlow(tp, spans, ops)
	tp.unlockSpans(spans)

	s.metrics.crossOps.Add(uint64(len(entries)))
	if !s.replWait(bar) {
		s.discard(t)
		return
	}
	s.respond(t, results[:len(entries)], Response{ID: t.req.ID, Status: StatusOK})
}

// execEntriesLocked executes batch entries strictly in order, each inside
// its own atomic block on its owning shard (a cross-shard transfer as the
// crossTransfer split). The caller holds every involved shard's gate
// exclusively — runSlowBatch for client batches, applyBlock for replica
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
