package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rtle/internal/check"
	"rtle/internal/core"
	"rtle/internal/snap"
)

// This file is the snapshot subsystem's server side: a consistent cut of
// the full served state, taken with every shard gate held exclusively, at
// a stable replication-log sequence. The one capture primitive feeds four
// consumers — the OpSnapshot wire stream (warm checker seeding), live
// resharding, replica fast-bootstrap after compaction, and log compaction
// itself (the durable snapshot file that replaces the truncated prefix).

// captureTopology reads every shard's full state in one consistent cut:
// all gates held exclusively (ascending, the slow path's lock order), so
// no atomic block is in flight anywhere and the log high-water mark is
// stable — fast-path commits append inside their shared-gate region,
// slow-path and replica-mirror commits inside exclusive gates, so with
// every gate held there is no seq the state has not caught up to. The
// captured state is therefore exactly the result of applying the log
// prefix through Seq.
func (s *Server) captureTopology(tp *topology) *snap.Snapshot {
	spans := make([]int, len(tp.shards))
	for i := range spans {
		spans[i] = i
	}
	tp.lockSpans(spans)
	sn := &snap.Snapshot{
		Workload: s.cfg.Workload,
		Keys:     uint64(s.cfg.Keys),
		Shards:   make([][]snap.Item, len(tp.shards)),
	}
	if r := s.repl; r != nil {
		sn.Seq = r.log.HighWater()
	}
	for k, sh := range tp.shards {
		sn.Shards[k] = captureShard(tp, sh)
	}
	tp.unlockSpans(spans)
	return sn
}

// captureShard enumerates one shard's live state. The caller holds the
// shard's gate exclusively, which is what licenses the slow thread and
// makes the enumeration a point-in-time read. Bodies are re-executable
// (speculative retry), so each resets its output before filling it.
func captureShard(tp *topology, sh *shard) []snap.Item {
	var items []snap.Item
	switch sh.adt.kind {
	case "set":
		var keys []uint64
		sh.slowThread.Atomic(func(c core.Context) {
			keys = sh.adt.set.Keys(c)
		})
		if len(keys) == 0 {
			return nil
		}
		items = make([]snap.Item, len(keys))
		for i, k := range keys {
			items[i] = snap.Item{Key: k}
		}
	case "map":
		sh.slowThread.Atomic(func(c core.Context) {
			items = items[:0]
			sh.adt.mp.ForEach(c, func(k, v uint64) bool {
				items = append(items, snap.Item{Key: k, Val: v})
				return true
			})
		})
		if len(items) == 0 {
			return nil
		}
	case "bank":
		owned := tp.router.ownedAccounts(sh.id)
		items = make([]snap.Item, len(owned))
		sh.slowThread.Atomic(func(c core.Context) {
			for i, g := range owned {
				items[i] = snap.Item{Key: g, Val: sh.adt.bk.BalanceCS(c, sh.adt.localIdx(g))}
			}
		})
	}
	return items
}

// CaptureSnapshot captures the full served state in one consistent cut
// (see captureTopology). It fails on a draining server: teardown owns the
// gates' endgame.
func (s *Server) CaptureSnapshot() (*snap.Snapshot, error) {
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		return nil, errors.New("server: snapshot on a draining server")
	}
	tp := s.top()
	sn := s.captureTopology(tp)
	s.drainMu.RUnlock()
	return sn, nil
}

// restoreTopology loads a snapshot into a freshly built generation: every
// item routes through tp's router and replays through the owning shard's
// slow executor under its exclusive gate. The shards must be pristine
// (straight from buildTopology) — restore adds state on top of the empty
// structures, it does not reconcile.
func (s *Server) restoreTopology(tp *topology, sn *snap.Snapshot) error {
	if sn.Workload != s.cfg.Workload {
		return fmt.Errorf("server: snapshot carries workload %q, this server serves %q", sn.Workload, s.cfg.Workload)
	}
	if sn.Keys != uint64(s.cfg.Keys) {
		return fmt.Errorf("server: snapshot key space %d does not match the configured %d", sn.Keys, s.cfg.Keys)
	}
	spans := make([]int, len(tp.shards))
	for i := range spans {
		spans[i] = i
	}
	tp.lockSpans(spans)
	err := restoreLocked(tp, sn)
	tp.unlockSpans(spans)
	return err
}

// restoreLocked replays a snapshot's items into tp's shards and stamps
// every shard's sequence cursor with the cut's sequence, all while the
// caller holds every gate exclusively. Bank snapshots must cover every
// account exactly once: a fresh Bank starts all balances at BankInitial,
// so a silently missing account would resurrect its seed balance.
//
//rtle:gated
func restoreLocked(tp *topology, sn *snap.Snapshot) error {
	var seen []bool
	if sn.Workload == "bank" {
		seen = make([]bool, sn.Keys)
	}
	for _, items := range sn.Shards {
		for _, it := range items {
			if it.Key >= sn.Keys {
				return fmt.Errorf("server: snapshot item key %d outside [0,%d)", it.Key, sn.Keys)
			}
			if seen != nil {
				if seen[it.Key] {
					return fmt.Errorf("server: snapshot repeats account %d", it.Key)
				}
				seen[it.Key] = true
			}
			restoreItem(tp.shards[tp.router.shardOf(it.Key)], sn.Workload, it)
		}
	}
	for g, ok := range seen {
		if !ok {
			return fmt.Errorf("server: snapshot is missing account %d", g)
		}
	}
	// Every shard resumes at the cut's sequence: sync-mode read barriers
	// and slow-path appends continue from it, exactly as on the server
	// that took the cut.
	for _, sh := range tp.shards {
		sh.lastSeq.Store(sn.Seq)
	}
	return nil
}

// restoreItem replays one item into its owning shard, one atomic block
// per item through the shard's slow executor — the same machinery client
// operations run through, so the restored structure is bit-for-bit what
// serving those operations would have built. The caller holds the
// shard's gate exclusively. Bank balances are forced exactly: drain the
// fresh account's seed balance, then deposit the captured one (simulated
// writes roll back on speculative abort, so the pair re-executes safely).
func restoreItem(sh *shard, workload string, it snap.Item) {
	switch workload {
	case "set":
		var res Result
		sh.slowThread.Atomic(func(c core.Context) {
			res = sh.slowEx.run(c, 0, check.OpInsert, it.Key, 0, 0)
		})
		sh.slowEx.after(0, check.OpInsert, res)
	case "map":
		var res Result
		sh.slowThread.Atomic(func(c core.Context) {
			res = sh.slowEx.run(c, 0, check.OpPut, it.Key, it.Val, 0)
		})
		sh.slowEx.after(0, check.OpPut, res)
	case "bank":
		sh.slowThread.Atomic(func(c core.Context) {
			idx := sh.adt.localIdx(it.Key)
			sh.adt.bk.WithdrawCS(c, idx, ^uint64(0))
			sh.adt.bk.DepositCS(c, idx, it.Val)
		})
	}
}

// serveSnapshot answers one OpSnapshot request: an OK response, then the
// state streamed as snapshot chunk frames on the same connection. The
// client treats the snapshot as its sole in-flight request (the chunk
// frames carry no request id), and the connection resumes ordinary
// request traffic after the end chunk.
func (s *Server) serveSnapshot(c *conn, req Request) {
	sn, err := s.CaptureSnapshot()
	if err != nil {
		s.reject(c, req.ID, StatusShutdown, err.Error())
		return
	}
	s.metrics.statuses[StatusOK].Add(1)
	c.out = AppendResponse(c.out, &Response{ID: req.ID, Status: StatusOK})
	c.frames++
	c.write()
	s.sendSnapshot(c, sn)
}

// sendSnapshot writes a snapshot's chunk frames to c, one write each. Encoding happens
// after the gates released (CaptureSnapshot returned), so a slow consumer
// never extends the capture's busy window.
func (s *Server) sendSnapshot(c *conn, sn *snap.Snapshot) {
	w := snap.NewWriter(func(chunk []byte) error {
		c.out = AppendSnapChunk(c.out, chunk)
		c.frames++
		c.write()
		return nil
	})
	// The emit callback never fails and the snapshot came from our own
	// capture, so encoding cannot error.
	_ = snap.Encode(w, sn)
}

// FetchSnapshot opens a dedicated connection to addr and retrieves the
// server's full state as one consistent snapshot. A dedicated connection
// because the chunk frames carry no request id: the snapshot must be the
// connection's sole in-flight request, which a pipelined Client cannot
// guarantee.
func FetchSnapshot(ctx context.Context, addr string) (*snap.Snapshot, error) {
	// A caller without a deadline still gets a bounded transfer; either way
	// the connection deadline handshake arms stays for all of it.
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
	}
	nc, fr, _, err := handshake(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	if err := exchange(ctx, nc, fr, &Request{Op: OpSnapshot}); err != nil {
		return nil, err
	}
	r := snap.NewReader()
	for {
		payload, err := fr.next()
		if err != nil {
			return nil, err
		}
		if !snap.IsChunk(payload) {
			return nil, errors.New("server: non-chunk frame inside a snapshot stream")
		}
		done, err := r.Feed(payload)
		if err != nil {
			return nil, err
		}
		if done {
			return r.Snapshot()
		}
	}
}

// swapTopology quiesces admission and installs nt as the live generation
// (see swapTopologyLocked). The caller has already migrated state into nt.
func (s *Server) swapTopology(nt *topology) error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return errors.New("server: topology swap on a draining server")
	}
	s.tasksWG.Wait()
	s.swapTopologyLocked(nt)
	return nil
}

// swapTopologyLocked installs nt as the live generation and attaches its
// metric blocks. Caller holds drainMu exclusively with tasksWG drained, so
// nothing still runs on the retired generation.
func (s *Server) swapTopologyLocked(nt *topology) {
	s.topo.Store(nt)
	s.metrics.attach(nt.shardMetrics())
}

// Reshard rebuilds the serving plane at n shards while the server stays
// up: admission quiesces under the drain lock, accepted tasks finish, the
// full state is captured in one gate-held cut, a fresh generation is
// built and restored from it, and the topology pointer swaps. Clients
// stall for the busy window rather than erroring (admission blocks on the
// lock, it is never refused). The replication log is untouched: entries
// carry global keys, not shard ids, so the sequence runs straight through
// the swap and replicas replay it against their own shard count.
func (s *Server) Reshard(n int) error {
	if n < 1 {
		return fmt.Errorf("server: reshard to %d shards", n)
	}
	if r := s.repl; r != nil && !r.primary() {
		return errors.New("server: reshard on a replica (reshard the primary; replicas rebuild from its snapshots)")
	}
	// Build the new generation before quiescing anything: construction is
	// the slow part, and a build error must leave the server untouched.
	nt, err := s.buildTopology(n)
	if err != nil {
		return err
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return errors.New("server: reshard on a draining server")
	}
	s.tasksWG.Wait()
	sn := s.captureTopology(s.top())
	if err := s.restoreTopology(nt, sn); err != nil {
		// The old generation was only read; it keeps serving.
		return err
	}
	s.swapTopologyLocked(nt)
	return nil
}

// Compact writes the current state to the snapshot file and truncates the
// replication log below the durable snapshot's sequence — bounded by the
// slowest live subscriber's acknowledgement, so no follower's pending
// suffix is yanked out from under its stream. Returns the log's new
// floor.
func (s *Server) Compact() (uint64, error) {
	r := s.repl
	if r == nil {
		return 0, errors.New("server: compaction without replication enabled")
	}
	if s.cfg.SnapFile == "" {
		return 0, errors.New("server: compaction needs Config.SnapFile; the truncated log prefix must survive somewhere")
	}
	sn, err := s.CaptureSnapshot()
	if err != nil {
		return 0, err
	}
	if err := snap.WriteFile(s.cfg.SnapFile, sn); err != nil {
		return 0, err
	}
	// Truncate under the subscriber lock: a subscriber registering
	// concurrently either lands before (its ack floor bounds the cut) or
	// after (it observes the raised floor and takes the bootstrap path) —
	// never between, where its stream start could silently vanish.
	below := sn.Seq
	r.mu.Lock()
	if len(r.subs) > 0 {
		if ma := r.minAckedLocked(); ma < below {
			below = ma
		}
	}
	terr := r.log.TruncateBelow(below)
	r.mu.Unlock()
	if terr != nil {
		return 0, terr
	}
	return r.log.Floor(), nil
}

// runCompactor auto-compacts whenever the log accumulates
// Config.CompactEvery entries above its floor. It watches the log's
// append notifications, so an idle server never wakes.
func (s *Server) runCompactor() {
	defer close(s.compactDone)
	r := s.repl
	notify := r.log.Subscribe()
	defer r.log.Unsubscribe(notify)
	for {
		select {
		case <-s.compactStop:
			return
		case <-notify:
		}
		if st := r.log.LogStats(); st.Entries < s.cfg.CompactEvery {
			continue
		}
		if _, err := s.Compact(); err != nil {
			// Draining, or the snapshot file's disk went bad: stop rather
			// than spin. The admin compact endpoint still works and will
			// surface the error.
			return
		}
	}
}
