package server

import (
	"context"
	"sync"
	"sync/atomic"

	"rtle/internal/repl"
)

// Replication roles. The role flips exactly once in a server's life —
// replica to primary at Promote — so a relaxed atomic read suffices on the
// admission path.
const (
	rolePrimary int32 = iota
	roleReplica
)

// replication is a server's replication state: the ordered block log, the
// live stream subscribers with their cumulative acknowledgements, and the
// sync-ack rendezvous. A primary appends every committed mutating block
// and streams the log to subscribers; a replica mirrors the primary's log
// and applies it through the same per-shard machinery that produced it.
//
// Soundness rests on one invariant, log order equals gate order: an
// entry's sequence number is assigned while the commit still holds its
// shard gate(s), so replaying entries in sequence order reproduces exactly
// the state the primary's clients observed. Fast-path commits serialize
// their append with a per-shard logMu held around the gate region
// (commits on different shards are independent and stay concurrent);
// slow-path commits append inside their exclusively held gates.
type replication struct {
	log     *repl.Log
	syncAck bool // hold client replies until every live subscriber acked

	// role is rolePrimary or roleReplica.
	role atomic.Int32

	// primaryAddr is the upstream address a replica follows ("" on a
	// born-primary server).
	primaryAddr string

	// mu guards subs and maxAcked; cond broadcasts on every ack and on
	// subscriber departure so sync-mode waiters re-evaluate.
	mu       sync.Mutex
	cond     *sync.Cond
	subs     map[*replSub]struct{}
	maxAcked uint64 // lowest cumulative ack across live subscribers
	// closing abandons sync-ack waiters during teardown: their held
	// responses are dropped, never released (see waitAcked).
	closing bool

	// waiters is the live sync-ack wait depth (a gauge, not a counter).
	waiters atomic.Int64
	// degraded counts sync-mode commits released without a live
	// subscriber: the primary kept serving, but those commits were
	// acknowledged on one copy only.
	degraded atomic.Uint64

	// appliedSeq is the latest entry applied to this server's ADT state —
	// meaningful on a replica (and after boot replay on a primary).
	appliedSeq atomic.Uint64

	// sessions counts replica stream (re)connections, for observability.
	sessions atomic.Uint64

	// Replica runner lifecycle: cancelling ctx interrupts the dial/follow
	// loop — a connection setup in flight included — and runnerDone closes
	// when it exits (started reports whether Listen ever launched it).
	// connMu guards nc, the live upstream connection, so Promote and Close
	// can sever a blocked read.
	ctx        context.Context
	cancel     context.CancelFunc
	started    atomic.Bool
	runnerDone chan struct{}
	connMu     sync.Mutex
	nc         interface{ Close() error }
}

// replSub is one live stream subscriber.
type replSub struct {
	acked uint64        // cumulative ack, guarded by replication.mu
	dead  chan struct{} // closed when the subscriber's connection dies
}

// newReplication builds the state for a server whose Config enabled
// replication.
func newReplication(log *repl.Log, syncAck bool, primaryAddr string) *replication {
	r := &replication{
		log:         log,
		syncAck:     syncAck,
		primaryAddr: primaryAddr,
		subs:        make(map[*replSub]struct{}),
		runnerDone:  make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.cond = sync.NewCond(&r.mu)
	if primaryAddr != "" {
		r.role.Store(roleReplica)
	}
	return r
}

// primary reports whether this server currently accepts writes.
func (r *replication) primary() bool { return r.role.Load() == rolePrimary }

// append assigns sequence numbers to one committed block's mutating
// operations, chunked by the log's entry bound (a coalesced group may
// exceed it), and returns the last sequence — the commit's sync barrier.
// Called while the commit still holds its shard gate(s).
//
//rtle:gated
func (r *replication) append(ops []repl.Op) uint64 {
	var last uint64
	for len(ops) > 0 {
		n := len(ops)
		if n > repl.MaxOps {
			n = repl.MaxOps
		}
		last = r.log.Append(ops[:n])
		ops = ops[n:]
	}
	return last
}

// waitAcked blocks until every live subscriber has acknowledged through
// seq — the sync ack mode's client-reply barrier. With no live subscriber
// the commit releases immediately and is counted degraded: stalling every
// client on a dead replica would turn one failure into total unavailability,
// which is the wrong trade for a two-node setup (the operator sees the
// counter and the lag gauge instead). In async mode it returns immediately.
// A false return means the wait was abandoned because the server is
// closing: the caller must drop the response, not send it.
func (r *replication) waitAcked(seq uint64) bool {
	if !r.syncAck || seq == 0 {
		return true
	}
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		// Closing wins over every release path. Close severs the
		// subscriber connection before the client connections finish
		// closing, so a waiter released by that removeSub could still
		// win the race to a live client socket — handing the client an
		// acknowledgement for a write no surviving replica has. Dropping
		// the response instead makes the client see the dying connection
		// and record the operation as pending, which the checker can
		// explain either way.
		if r.closing {
			return false
		}
		if r.maxAcked >= seq {
			return true
		}
		if len(r.subs) == 0 {
			r.degraded.Add(1)
			return true
		}
		r.cond.Wait()
	}
}

// markClosing abandons every sync-ack waiter, current and future; their
// held responses are dropped rather than released. Must be called before
// the teardown that severs subscriber connections.
func (r *replication) markClosing() {
	r.mu.Lock()
	r.closing = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// minAckedLocked recomputes the lowest cumulative ack across live
// subscribers. Called with mu held.
func (r *replication) minAckedLocked() uint64 {
	if len(r.subs) == 0 {
		// No subscribers: the floor stays where the last ack left it, so
		// blocked waiters release through the counted degraded path in
		// waitAcked instead of silently, and the acked-seq gauge reports
		// real acknowledgements rather than the log head.
		return r.maxAcked
	}
	min := ^uint64(0)
	for s := range r.subs {
		if s.acked < min {
			min = s.acked
		}
	}
	return min
}

// minAcked returns the lowest cumulative ack (the acked-seq gauge).
func (r *replication) minAcked() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.minAckedLocked()
}

// subscriberCount returns the live subscriber count.
func (r *replication) subscriberCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// addSub registers a live subscriber whose stream starts at first (it has
// acknowledged everything before it).
func (r *replication) addSub(first uint64) *replSub {
	sub := &replSub{dead: make(chan struct{})}
	if first > 0 {
		sub.acked = first - 1
	}
	r.mu.Lock()
	r.subs[sub] = struct{}{}
	r.maxAcked = r.minAckedLocked()
	r.mu.Unlock()
	r.cond.Broadcast()
	return sub
}

// removeSub drops a departed subscriber and re-derives the ack floor —
// waiters blocked on the departed subscriber must re-evaluate (and possibly
// release degraded).
func (r *replication) removeSub(sub *replSub) {
	r.mu.Lock()
	delete(r.subs, sub)
	r.maxAcked = r.minAckedLocked()
	r.mu.Unlock()
	r.cond.Broadcast()
}

// ack records a subscriber's cumulative acknowledgement through seq.
func (r *replication) ack(sub *replSub, seq uint64) {
	r.mu.Lock()
	if seq > sub.acked {
		sub.acked = seq
	}
	r.maxAcked = r.minAckedLocked()
	r.mu.Unlock()
	r.cond.Broadcast()
}

// setConn publishes the replica's live upstream connection so Promote and
// Close can sever a blocked read.
func (r *replication) setConn(nc interface{ Close() error }) {
	r.connMu.Lock()
	r.nc = nc
	r.connMu.Unlock()
}

// closeConn severs the live upstream connection, if any.
func (r *replication) closeConn() {
	r.connMu.Lock()
	nc := r.nc
	r.connMu.Unlock()
	if nc != nil {
		_ = nc.Close() // severing a dead conn twice is harmless
	}
}

// shutdownRunner stops the replica dial/follow loop and waits for it.
// Idempotent; a no-op when the runner never started (a born-primary
// server, or Close before Listen).
func (r *replication) shutdownRunner() {
	r.cancel()
	r.closeConn()
	if r.started.Load() {
		<-r.runnerDone
	}
}

// replBatchOps converts one block's mutating entries to log ops. Reads are
// stripped: they do not change state, so replaying without them reproduces
// the same history. A nil return means nothing to log.
func replBatchOps(buf []repl.Op, entries []BatchEntry) []repl.Op {
	buf = buf[:0]
	for i := range entries {
		e := &entries[i]
		if IsRead(e.Op) {
			continue
		}
		buf = append(buf, repl.Op{
			Code: uint8(e.Op), Arg1: e.Arg1, Arg2: e.Arg2, Arg3: e.Arg3,
		})
	}
	if len(buf) == 0 {
		return nil
	}
	return buf
}

// serveSubscriber converts one connection into a replication stream: it
// answers the OpReplSubscribe request, then runs two loops — a streamer
// goroutine pushing log entries from the requested sequence, and this
// (the read) loop consuming cumulative acks. It returns when the
// connection dies; readLoop stops decoding requests afterwards. The
// stream setup is once-per-subscriber: cold from readLoop's perspective.
func (s *Server) serveSubscriber(c *conn, fr *frameReader, req Request) {
	r := s.repl
	if r == nil {
		s.reject(c, req.ID, StatusBad, "replication is not enabled on this server")
		return
	}
	first := req.Arg1
	if first == 0 {
		first = 1
	}
	if hw := r.log.HighWater(); first > hw+1 {
		s.reject(c, req.ID, StatusBad, "subscribe sequence is past the log high-water mark")
		return
	}
	s.metrics.statuses[StatusOK].Add(1)
	c.out = AppendResponse(c.out, &Response{ID: req.ID, Status: StatusOK})
	c.frames++
	c.write()

	sub := r.addSub(first)
	defer r.removeSub(sub)

	// Registration closes the compaction race: Compact bounds its cut by
	// the live ack floor, which now includes this subscriber at first-1,
	// so the log floor can no longer reach first. A suffix compacted away
	// before that is bootstrapped from the live state instead.
	start := first
	if r.log.Floor() >= first {
		sn, err := s.CaptureSnapshot()
		if err != nil {
			_ = c.nc.Close() // draining; nothing to stream
			return
		}
		s.sendSnapshot(c, sn)
		start = sn.Seq + 1
	}

	// From here until <-done the streamer is the connection's only
	// writer; this goroutine only reads acknowledgements.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.streamEntries(c, sub, start)
	}()

	for {
		payload, err := fr.next()
		if err != nil {
			break // EOF or reset: the subscriber is gone
		}
		seq, err := repl.DecodeAckPayload(payload)
		if err != nil {
			break // a desynchronized subscriber cannot be resynced
		}
		r.ack(sub, seq)
	}
	close(sub.dead)
	_ = c.nc.Close() // unblock the streamer's write and our own teardown
	<-done
}

// streamEntries pushes log entries to one subscriber, from sequence
// `next`, until its connection dies.
func (s *Server) streamEntries(c *conn, sub *replSub, next uint64) {
	r := s.repl
	notify := r.log.Subscribe()
	defer r.log.Unsubscribe(notify)
	for {
		select {
		case <-sub.dead:
			return // stop pushing even if the log keeps growing
		default:
		}
		entries := r.log.From(next, 256)
		if len(entries) == 0 {
			select {
			case <-notify:
				continue
			case <-sub.dead:
				return
			}
		}
		// One write per log read, not per entry.
		for i := range entries {
			c.out = AppendReplEntry(c.out, &entries[i])
			c.frames++
		}
		c.write()
		next = entries[len(entries)-1].Seq + 1
	}
}
