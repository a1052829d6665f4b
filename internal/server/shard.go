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
// instance, synchronization method, bounded queue, and worker pool. The
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
	queue  chan *task

	// gate is the shard's drain gate, the fast/slow-path split at the
	// serving layer: workers hold it shared around every atomic block (the
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

// worker executes one shard's queued tasks. Each worker owns one method
// thread and one executor (with a handle per slot), so the pool maps onto
// the paper's thread model: Workers concurrent critical-section executors
// per shard.
//
//rtle:hotpath
func (s *Server) worker(sh *shard) {
	defer s.workersWG.Done()
	sec := newSection(sh, max(s.cfg.Coalesce, MaxBatchOps))
	group := make([]*task, 0, s.cfg.Coalesce) //rtle:ignore hotalloc worker-lifetime scratch; one group of at most Coalesce tasks at a time

	for {
		t, ok := <-sh.queue
		if !ok {
			return
		}
		// The queue carries affinity-run chains as well as lone tasks. Each
		// task is picked up (queued → executing) only as it is detached
		// into a group, so a carried chain remainder still reads as queue
		// depth. Detaching before execution matters: putTask clears next,
		// so a still-linked task would drop its tail.
		for t != nil {
			carry := t.next
			t.next = nil
			sh.pickup(t)
			switch t.req.Op {
			case OpPing:
				//rtle:ignore hotalloc a ping carries no results; respond encodes nil as the empty set without growing it
				s.respond(t, nil, Response{ID: t.req.ID, Status: StatusOK})
			case OpBatch:
				s.runBatch(sh, sec, t)
			default:
				group = append(group[:0], t)
				// The rest of the chain fills the group first, then the
				// queue tops it off.
				for carry != nil && len(group) < s.cfg.Coalesce &&
					carry.req.Op != OpPing && carry.req.Op != OpBatch {
					nt := carry
					carry = carry.next
					nt.next = nil
					sh.pickup(nt)
					group = append(group, nt)
				}
				if carry == nil {
					carry = s.fillGroup(sh, &group)
				}
				s.runGroup(sh, sec, group)
			}
			t = carry
		}
	}
}

// pickup accounts a task's transition from queued to executing. The depth
// gauge was raised before the send (enqueueLocked), so it never reads
// negative here either.
func (sh *shard) pickup(t *task) {
	sh.m.queueDepth.Add(-1)
	sh.m.inflight.Add(1)
}

// fillGroup drains further single operations that are already queued into
// group, up to Config.Coalesce in all, so one elided critical section
// serves several pending requests. It never waits: a shallow queue yields a
// small group. A batch or ping pulled while filling is returned for the
// caller to run next, as is the remainder of a chain that overflows the
// cap (not yet picked up, its links intact). Coalescing preserves
// linearizability: every grouped operation is pending (invoked, not yet
// answered) when the shared block commits, so placing them all at its
// commit point respects real-time order.
func (s *Server) fillGroup(sh *shard, group *[]*task) *task {
	for len(*group) < s.cfg.Coalesce {
		select {
		case t, ok := <-sh.queue:
			if !ok {
				return nil
			}
			for t != nil {
				if t.req.Op == OpPing || t.req.Op == OpBatch || len(*group) >= s.cfg.Coalesce {
					return t
				}
				nx := t.next
				t.next = nil
				sh.pickup(t)
				*group = append(*group, t)
				t = nx
			}
		default:
			return nil
		}
	}
	return nil
}

// section is what one worker runs its atomic blocks with: an executor (a
// handle per slot), a method thread, and the scratch a block needs, reused
// for the worker's whole life. The block's body is bound once, here: Atomic
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

// newSection builds the block runner of one worker of sh, sized for blocks
// of up to slots operations.
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

// runGroup executes every task of group inside one atomic block on sh,
// then answers them.
func (s *Server) runGroup(sh *shard, sec *section, group []*task) {
	sec.staged = sec.staged[:0]
	for _, t := range group {
		sec.staged = append(sec.staged, BatchEntry{Op: t.req.Op, Arg1: t.req.Arg1, Arg2: t.req.Arg2, Arg3: t.req.Arg3})
	}
	bar := s.runSection(sh, sec, sec.staged)
	if len(group) > 1 {
		sh.m.coalesced.Add(uint64(len(group)))
	}
	if !s.replWait(bar) {
		for _, t := range group {
			s.discard(t)
		}
		return
	}
	for i, t := range group {
		s.respond(t, sec.results[i:i+1], Response{ID: t.req.ID, Status: StatusOK})
	}
}

// runBatch executes one single-shard client batch inside one atomic block
// — the protocol's atomicity contract — and answers with per-entry
// results. Batches spanning several shards take the slow path instead.
func (s *Server) runBatch(sh *shard, sec *section, t *task) {
	entries := t.req.Batch
	bar := s.runSection(sh, sec, entries)
	sh.m.batchOps.Add(uint64(len(entries)))
	if !s.replWait(bar) {
		s.discard(t)
		return
	}
	s.respond(t, sec.results[:len(entries)], Response{ID: t.req.ID, Status: StatusOK})
}

// replWait blocks until the barrier sequence is acknowledged (sync ack
// mode; a no-op otherwise). A false return means the wait was abandoned
// by server teardown: the caller must discard the task instead of
// answering it — the write may never reach a replica, so a response
// would be an acknowledgement the surviving side cannot honor.
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
// atomic — no fast-path worker (and hence no client-visible operation)
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
