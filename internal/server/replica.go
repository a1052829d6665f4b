package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"rtle/internal/repl"
	"rtle/internal/snap"
)

// runReplica is the replica's dial/follow loop: connect to the primary,
// subscribe from our own high-water mark, mirror and apply the stream, and
// on any failure back off and reconnect — the primary being briefly down
// must not kill the replica that is about to replace it. It exits when the
// replication stop channel closes (promotion or shutdown).
func (s *Server) runReplica() {
	r := s.repl
	defer close(r.runnerDone)
	backoff := 50 * time.Millisecond
	for {
		nc, fr, err := s.dialPrimary(r.ctx) // fails at once when the context is done
		if err != nil {
			select {
			case <-r.ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		backoff = 50 * time.Millisecond
		r.sessions.Add(1)
		s.followStream(nc, fr)
		_ = nc.Close() // followStream may have exited with the conn alive
	}
}

// dialPrimary opens one subscribed replication stream: the handshake and
// an OpReplSubscribe for the suffix this replica is missing, which a
// primary without replication refuses with its reason. The setup runs under
// a deadline so a hung primary cannot wedge the loop, and under ctx so a
// stopping replica does not wait the deadline out; the deadline is cleared
// before the open-ended stream phase.
func (s *Server) dialPrimary(ctx context.Context) (net.Conn, *frameReader, error) {
	r := s.repl
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	nc, fr, _, err := handshake(ctx, r.primaryAddr)
	if err != nil {
		return nil, nil, err
	}
	if err := exchange(ctx, nc, fr, &Request{Op: OpReplSubscribe, Arg1: r.log.HighWater() + 1}); err != nil {
		_ = nc.Close() // the setup failed; nothing to keep
		return nil, nil, err
	}
	_ = nc.SetDeadline(time.Time{}) // as in DialContext; a connection this fails on is dead and the stream's first read says so
	return nc, fr, nil
}

// followStream consumes one subscribed stream: decode each entry, mirror
// it into the log, apply it through the shard machinery, and acknowledge.
// It returns on any error; the caller reconnects and resubscribes from the
// new high-water mark. Duplicates below the high-water mark are skipped
// (a resubscribe race replays a suffix), a gap means the stream
// desynchronized.
//
// A primary whose log no longer holds the requested suffix (compaction)
// streams a snapshot first, as snap chunks interleaved nowhere — the
// chunks arrive before any entry — then the log tail above the snapshot's
// sequence. The replica rebuilds its shard state from the snapshot and
// resets its own log to the snapshot's sequence, so the tail mirrors
// contiguously.
func (s *Server) followStream(nc net.Conn, fr *frameReader) {
	r := s.repl
	r.setConn(nc)
	defer r.setConn(nil)
	// shutdownRunner cancels ctx before it severs the published conn: a
	// shutdown that found none published yet is visible here.
	if r.ctx.Err() != nil {
		return
	}
	bw := bufio.NewWriterSize(nc, 1<<12)
	br, _ := fr.r.(*bufio.Reader)
	var sr *snap.Reader
	for {
		payload, err := fr.next()
		if err != nil {
			return
		}
		if snap.IsChunk(payload) {
			if sr == nil {
				sr = snap.NewReader()
			}
			done, err := sr.Feed(payload)
			if err != nil {
				return
			}
			if !done {
				continue
			}
			sn, err := sr.Snapshot()
			if err != nil {
				return
			}
			sr = nil
			if err := s.bootstrapFromSnapshot(sn); err != nil {
				return
			}
			_, _ = bw.Write(AppendReplAck(nil, sn.Seq))
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		e, err := repl.DecodeEntryPayload(payload)
		if err != nil {
			return
		}
		hw := r.log.HighWater()
		if e.Seq <= hw {
			continue // duplicate from a resubscribe race
		}
		if e.Seq != hw+1 {
			return // gap: resubscribe from our own high-water mark
		}
		if err := s.applyEntry(&e, true); err != nil {
			// An entry the shard contract rejects can only mean version or
			// config skew with the primary; applying it would fork state.
			return
		}
		_, _ = bw.Write(AppendReplAck(nil, e.Seq)) // error surfaces at Flush
		// Flush when the read buffer is momentarily empty: a catch-up burst
		// acks once per buffered batch, a live tail acks per entry.
		if br == nil || br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// bootstrapFromSnapshot replaces this replica's entire state with a
// snapshot streamed by the primary: build a fresh generation at the
// current shard count, restore into it, swap it live, and reset the local
// log to the snapshot's sequence so the tail that follows mirrors
// contiguously. The discarded generation held only state the snapshot
// subsumes.
func (s *Server) bootstrapFromSnapshot(sn *snap.Snapshot) error {
	r := s.repl
	nt, err := s.buildTopology(len(s.top().shards))
	if err != nil {
		return err
	}
	if err := s.restoreTopology(nt, sn); err != nil {
		return err
	}
	if err := s.swapTopology(nt); err != nil {
		return err
	}
	if err := r.log.ResetTo(sn.Seq); err != nil {
		return err
	}
	r.appliedSeq.Store(sn.Seq)
	return nil
}

// applyEntry validates one log entry against the serving contract and
// replays it through the cross-shard machinery, under the involved
// shards' exclusive gates — the replica-side mirror of runCross,
// which makes replay serialization a superset of the primary's: whatever
// interleaving produced the block, executing it alone under exclusive
// gates reproduces its effect. Validation first: the entry came off the
// network, and the shard executors trust their inputs.
//
// With mirror set (the replica stream path), the local log append and the
// applied-cursor advance happen inside the same gate region, so the shard
// state, the mirrored log, and the cursor always agree — the consistency
// a snapshot captured on this server rests on.
func (s *Server) applyEntry(e *repl.Entry, mirror bool) error {
	entries := make([]BatchEntry, len(e.Ops))
	for i, op := range e.Ops {
		entries[i] = BatchEntry{Op: Op(op.Code), Arg1: op.Arg1, Arg2: op.Arg2, Arg3: op.Arg3}
	}
	req := Request{Op: OpBatch, Batch: entries}
	if err := s.validate(&req); err != nil {
		return fmt.Errorf("repl: entry %d: %w", e.Seq, err)
	}
	// The admission lock pins the topology: a concurrent admin reshard
	// waits for this apply, and this apply never straddles a swap.
	s.drainMu.RLock()
	tp := s.top()
	spans := tp.router.batchSpans(entries)
	results := make([]Result, len(entries))
	var merr error
	tp.lockSpans(spans)
	s.execEntriesLocked(tp, entries, results)
	if mirror {
		r := s.repl
		if merr = r.log.AppendEntry(*e); merr == nil {
			r.appliedSeq.Store(e.Seq)
		}
	}
	tp.unlockSpans(spans)
	s.drainMu.RUnlock()
	return merr
}

// replayLog replays the log's entries above seq `from` through the shard
// machinery — the warm-boot path, before any worker or connection exists
// (from is the restored snapshot's sequence, or zero on a snapshot-less
// boot). Invalid entries abort the boot: serving on top of a half-applied
// log would fork state.
func (s *Server) replayLog(from uint64) error {
	r := s.repl
	seq := from
	for {
		entries := r.log.From(seq+1, 256)
		if len(entries) == 0 {
			r.appliedSeq.Store(seq)
			return nil
		}
		for i := range entries {
			if err := s.applyEntry(&entries[i], false); err != nil {
				return err
			}
			seq = entries[i].Seq
		}
	}
}

// Promote flips a replica into the primary role: stop following the old
// primary, finish applying what already arrived, and accept writes from
// the log's high-water mark. Acknowledged writes the old primary streamed
// before dying are applied (that is the sync-ack guarantee); writes it
// never streamed die with it, which is exactly what "unacknowledged" means
// to a client. Returns the sequence the new primary starts from.
func (s *Server) Promote(ctx context.Context) (uint64, error) {
	r := s.repl
	if r == nil {
		return 0, errors.New("server: Promote without replication enabled")
	}
	if r.role.Load() != roleReplica {
		return 0, errors.New("server: Promote on a server that is already primary")
	}
	r.shutdownRunner()
	select {
	case <-ctx.Done():
		return 0, ctx.Err()
	default:
	}
	r.role.Store(rolePrimary)
	return r.log.HighWater(), nil
}
