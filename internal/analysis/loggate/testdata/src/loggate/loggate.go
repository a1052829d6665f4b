// Package loggate is the golden input for the loggate analyzer: a
// miniature replicating primary whose gate-held appends are clean and
// whose stray appends/barrier reads seed true positives. The
// //rtle:ignore site proves a reviewed startup-replay append stays
// silent.
package loggate

import (
	"sync"
	"sync/atomic"

	"rtle/internal/repl"
)

type replication struct {
	log *repl.Log
}

// append is the primary's log append; its contract is caller-holds-gates.
//
//rtle:gated
func (r *replication) append(ops []repl.Op) uint64 {
	return r.log.Append(ops)
}

type shard struct {
	gate    sync.RWMutex
	lastSeq atomic.Uint64
}

type srv struct {
	shards []*shard
	r      *replication
	log    *repl.Log
}

// lockSpans is the exclusive acquisition helper: its body takes the gates,
// so loggate counts calls to it as entering a held region.
func (s *srv) lockSpans(spans []int) {
	for _, k := range spans {
		s.shards[k].gate.Lock()
	}
}

// unlockSpans releases the gates taken by lockSpans.
func (s *srv) unlockSpans(spans []int) {
	for _, k := range spans {
		s.shards[k].gate.Unlock()
	}
}

// fastAppend is the conforming fast path: append and barrier accesses sit
// between RLock and RUnlock, so the logged block cannot interleave with a
// drain.
func (s *srv) fastAppend(sh *shard, ops []repl.Op) uint64 {
	sh.gate.RLock()
	bar := s.r.append(ops)
	sh.lastSeq.Store(bar)
	bar = sh.lastSeq.Load()
	sh.gate.RUnlock()
	return bar
}

// appendSlow advances every span's barrier under its gated contract; the
// body itself holds nothing.
//
//rtle:gated
func (s *srv) appendSlow(spans []int, ops []repl.Op) uint64 {
	seq := s.r.append(ops)
	for _, k := range spans {
		s.shards[k].lastSeq.Store(seq)
	}
	return seq
}

// slowBlock discharges appendSlow's obligation: the call sits between
// lockSpans and unlockSpans.
func (s *srv) slowBlock(spans []int, ops []repl.Op) {
	s.lockSpans(spans)
	s.appendSlow(spans, ops)
	s.unlockSpans(spans)
}

// strayAppend calls the gated append with no gate held: the appended
// block races a concurrent drain and log order detaches from gate order.
func (s *srv) strayAppend(ops []repl.Op) {
	s.r.append(ops) // want `call to //rtle:gated append in strayAppend outside a held gate region`
}

// rawStray bypasses even the wrapper.
func (s *srv) rawStray(ops []repl.Op) {
	s.log.Append(ops) // want `replication append in rawStray outside a held gate region`
}

// strayBarrier reads the sync-ack barrier outside the gate: it can
// observe a sequence whose block has not reached the log.
func (s *srv) strayBarrier(sh *shard) uint64 {
	return sh.lastSeq.Load() // want `barrier-seq \(lastSeq\) access in strayBarrier outside a held gate region`
}

// afterRelease shows the positional tracking: the same append is a
// violation once the gates are gone.
func (s *srv) afterRelease(spans []int, ops []repl.Op) {
	s.lockSpans(spans)
	s.unlockSpans(spans)
	s.appendSlow(spans, ops) // want `call to //rtle:gated appendSlow in afterRelease outside a held gate region`
}

// restore is single-threaded recovery: barrier stores before any worker
// exists are legal via //rtle:init.
//
//rtle:init
func (s *srv) restore(sh *shard, seq uint64) {
	sh.lastSeq.Store(seq)
}

// bootstrap replays a snapshot during startup, before the gates (or any
// competitor) exist; the waiver records that argument.
func (s *srv) bootstrap(ops []repl.Op) {
	//rtle:ignore loggate startup replay; no worker is running yet, gate order is vacuous
	s.log.Append(ops)
}
