package server

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rtle/internal/check"
	"rtle/internal/repl"
)

// bootRepl boots a server whose teardown tolerates an abrupt mid-test
// Close — startServer's cleanup insists on a clean Shutdown, which a
// deliberately killed primary cannot deliver.
func bootRepl(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }() // an abrupt Close makes Serve's error meaningless
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether the replica has applied everything the
// primary has logged (and at least one entry, so an idle pair does not
// vacuously pass).
func caughtUp(primary, replica *Server) func() bool {
	return func() bool {
		hw := primary.repl.log.HighWater()
		return hw > 0 && replica.repl.appliedSeq.Load() >= hw
	}
}

// TestReplicaFollowsAndPromotes is the subsystem's core integration
// claim: a replica subscribed to a live primary converges to the same
// state, refuses writes while following, and serves the full history
// after promotion.
func TestReplicaFollowsAndPromotes(t *testing.T) {
	primary, pAddr := bootRepl(t, Config{Workload: "map", Keys: 64, Shards: 2, ReplAck: "async"})
	replica, rAddr := bootRepl(t, Config{Workload: "map", Keys: 64, Shards: 2, ReplicaOf: pAddr})

	c, err := DialContext(context.Background(), pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const writes = 200
	for i := 0; i < writes; i++ {
		key := uint64(i % 64)
		if resp, err := c.Op(check.OpPut, key, uint64(1000+i), 0); err != nil || resp.Status != StatusOK {
			t.Fatalf("put %d: %v / %v", i, err, resp.Status)
		}
	}

	waitFor(t, 10*time.Second, "replica catch-up", caughtUp(primary, replica))

	// A following replica must reject mutations and reads alike — serving
	// reads from a lagging copy would break linearizability.
	rc, err := DialContext(context.Background(), rAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if resp, err := rc.Op(check.OpPut, 1, 1, 0); err != nil || resp.Status != StatusNotPrimary {
		t.Fatalf("replica answered write with %v / %v, want StatusNotPrimary", err, resp.Status)
	}
	if resp, err := rc.Op(check.OpGet, 1, 0, 0); err != nil || resp.Status != StatusNotPrimary {
		t.Fatalf("replica answered read with %v / %v, want StatusNotPrimary", err, resp.Status)
	}
	if err := rc.Ping(); err != nil {
		t.Fatalf("replica refused a ping: %v", err)
	}

	wantHW := primary.repl.log.HighWater()
	_ = primary.Close()
	seq, err := replica.Promote(context.Background())
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if seq != wantHW {
		t.Errorf("promoted at seq %d, primary logged %d", seq, wantHW)
	}
	if _, err := replica.Promote(context.Background()); err == nil {
		t.Error("second Promote succeeded")
	}

	// The promoted server must hold exactly the primary's final state.
	rc2, err := DialContext(context.Background(), rAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	for key := uint64(0); key < 64; key++ {
		// The last write to key k in the loop above was 1000 + the largest
		// i < writes with i % 64 == k.
		last := uint64(1000 + int(key) + 64*((writes-1-int(key))/64))
		resp, err := rc2.Op(check.OpGet, key, 0, 0)
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("get %d after promote: %v / %v", key, err, resp.Status)
		}
		if !resp.Results[0].Ok || resp.Results[0].Ret != last {
			t.Fatalf("key %d = (%d,%v) after promote, want (%d,true)",
				key, resp.Results[0].Ret, resp.Results[0].Ok, last)
		}
	}
}

// TestReplicaMatchesPrimaryUnderOverlappingWrites pins log order to
// commit order within a shard. Four connections put to the same key at
// once, key after key, on one shard: the four sections conflict, commit one
// after another, and the last to commit holds the key for good, since no
// later step writes it again. Were a section's append made outside logMu
// (DESIGN §5.1, L4), two of them could log in the opposite order to their
// commits, and the replica, replaying the log, would keep a value the
// primary overwrote.
func TestReplicaMatchesPrimaryUnderOverlappingWrites(t *testing.T) {
	const conns, keys = 4, 4096
	primary, pAddr := bootRepl(t, Config{Workload: "map", Keys: keys, Shards: 1, ReplAck: "async"})
	replica, rAddr := bootRepl(t, Config{Workload: "map", Keys: keys, Shards: 1, ReplicaOf: pAddr})

	clients := make([]*Client, conns)
	for g := range clients {
		c, err := DialContext(context.Background(), pAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[g] = c
	}
	for key := uint64(0); key < keys && !t.Failed(); key++ {
		var wg sync.WaitGroup
		for g, c := range clients {
			wg.Add(1)
			go func(g int, c *Client) {
				defer wg.Done()
				if resp, err := c.Op(check.OpPut, key, uint64(g)<<32|(key+1), 0); err != nil || resp.Status != StatusOK {
					t.Errorf("conn %d put %d: %v / %v", g, key, err, resp.Status)
				}
			}(g, c)
		}
		wg.Wait()
	}
	if t.Failed() {
		return
	}
	waitFor(t, 10*time.Second, "replica catch-up", caughtUp(primary, replica))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	psn, err := FetchSnapshot(ctx, pAddr)
	if err != nil {
		t.Fatalf("primary snapshot: %v", err)
	}
	rsn, err := FetchSnapshot(ctx, rAddr)
	if err != nil {
		t.Fatalf("replica snapshot: %v", err)
	}
	if psn.Seq != rsn.Seq || psn.Seq != conns*keys {
		t.Fatalf("primary cut at seq %d, replica at %d: want both at %d", psn.Seq, rsn.Seq, conns*keys)
	}
	if len(psn.Shards) != len(rsn.Shards) {
		t.Fatalf("primary has %d shards, replica %d", len(psn.Shards), len(rsn.Shards))
	}
	diverged := 0
	for sh := range psn.Shards {
		p, r := psn.Shards[sh], rsn.Shards[sh]
		if len(p) != len(r) {
			t.Fatalf("shard %d: primary holds %d items, replica %d", sh, len(p), len(r))
		}
		for i := range p {
			if p[i] != r[i] {
				if diverged++; diverged <= 3 {
					t.Errorf("shard %d item %d: primary %+v, replica %+v at seq %d", sh, i, p[i], r[i], psn.Seq)
				}
			}
		}
	}
	if diverged > 3 {
		t.Errorf("%d items differ in all", diverged)
	}
}

// TestSyncAckWaitsForReplica checks sync mode's commit barrier: with a
// live subscriber, every write — a put on the fast path, a cross-shard
// transfer under exclusive gates — is answered only after the replica
// acknowledged its log entry, so acked has reached the high-water mark
// whenever an answer arrives, with no degraded releases.
func TestSyncAckWaitsForReplica(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// write is the i'th write; cross is an account pair different
		// shards own (bank only).
		write func(i int, cross [2]uint64) Request
	}{
		{"map/1-shard", Config{Workload: "map", Keys: 32}, func(i int, _ [2]uint64) Request {
			return Request{Op: check.OpPut, Arg1: uint64(i % 32), Arg2: uint64(i)}
		}},
		{"bank/2-shard", Config{Workload: "bank", Keys: 16, Shards: 2}, func(i int, cross [2]uint64) Request {
			return Request{Op: check.OpTransfer, Arg1: cross[i%2], Arg2: cross[1-i%2], Arg3: 1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pcfg, rcfg := tc.cfg, tc.cfg
			pcfg.ReplAck = "sync"
			primary, pAddr := bootRepl(t, pcfg)
			rcfg.ReplicaOf = pAddr
			replica, _ := bootRepl(t, rcfg)
			var cross [2]uint64
			if tc.cfg.Workload == "bank" {
				cross, _ = crossShardPair(t, primary.top().router, uint64(tc.cfg.Keys))
			}

			waitFor(t, 10*time.Second, "replica subscription", func() bool {
				primary.repl.mu.Lock()
				n := len(primary.repl.subs)
				primary.repl.mu.Unlock()
				return n == 1
			})

			c, err := DialContext(context.Background(), pAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// A cross-shard write that deadlocks on its gates would hang
			// here, before TestCrossShardBank's bound could fire.
			withinGateBound(t, "sync-acked writes", func() {
				for i := 0; i < 50 && err == nil; i++ {
					req := tc.write(i, cross)
					resp, opErr := c.Op(req.Op, req.Arg1, req.Arg2, req.Arg3)
					// Only this client writes: the high water is this write's entry.
					hw := primary.repl.log.HighWater()
					switch acked := primary.repl.minAcked(); {
					case opErr != nil || resp.Status != StatusOK:
						err = fmt.Errorf("write %d: %v / %v", i, opErr, resp.Status)
					case hw == 0:
						err = fmt.Errorf("no log entry after write %d", i)
					case acked < hw:
						err = fmt.Errorf("sync mode answered write %d at acked %d < high water %d", i, acked, hw)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := primary.repl.degraded.Load(); d != 0 {
				t.Errorf("%d degraded releases with a live subscriber", d)
			}
			if tc.cfg.Workload == "bank" && primary.Metrics().CrossShard() != 50 {
				t.Errorf("%d cross-shard ops, want the 50 transfers", primary.Metrics().CrossShard())
			}
			waitFor(t, 10*time.Second, "replica catch-up", caughtUp(primary, replica))
		})
	}
}

// TestSyncAckDegradedWithoutReplica checks sync mode's availability
// escape hatch: with no subscriber at all, commits release immediately
// and are counted degraded instead of stalling the server.
func TestSyncAckDegradedWithoutReplica(t *testing.T) {
	primary, pAddr := bootRepl(t, Config{Workload: "map", Keys: 32, ReplAck: "sync"})
	c, err := DialContext(context.Background(), pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		resp, err := c.Op(check.OpPut, 1, 7, 0)
		if err == nil && resp.Status != StatusOK {
			err = fmt.Errorf("status %v", resp.Status)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degraded sync write failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync write with no subscriber stalled")
	}
	if primary.repl.degraded.Load() == 0 {
		t.Error("degraded counter did not record the unreplicated release")
	}
}

// TestWaitAckedReleasePaths pins the three ways a sync-ack wait ends:
// acknowledged (respond), no subscribers (respond, counted degraded),
// and teardown (false — the response must be discarded, because a waiter
// released by Close's subscriber teardown could otherwise race its held
// acknowledgement onto a client socket the close loop has not reached).
func TestWaitAckedReleasePaths(t *testing.T) {
	mklog := func() *repl.Log {
		l, err := repl.Open("")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// Acknowledged: a live subscriber acks through the sequence.
	r := newReplication(mklog(), true, "")
	seq := r.log.Append([]repl.Op{{Code: uint8(check.OpPut), Arg1: 1}})
	sub := r.addSub(1)
	released := make(chan bool, 1)
	go func() { released <- r.waitAcked(seq) }()
	r.ack(sub, seq)
	if ok := <-released; !ok {
		t.Error("acknowledged wait returned false")
	}
	if d := r.degraded.Load(); d != 0 {
		t.Errorf("acknowledged release counted degraded (%d)", d)
	}

	// Last subscriber departs without acking: released true, degraded.
	r = newReplication(mklog(), true, "")
	seq = r.log.Append([]repl.Op{{Code: uint8(check.OpPut), Arg1: 1}})
	sub = r.addSub(1)
	go func() { released <- r.waitAcked(seq) }()
	waitFor(t, 5*time.Second, "waiter parked", func() bool { return r.waiters.Load() == 1 })
	r.removeSub(sub)
	if ok := <-released; !ok {
		t.Error("degraded release returned false")
	}
	if d := r.degraded.Load(); d != 1 {
		t.Errorf("degraded releases = %d, want 1", d)
	}

	// Teardown: markClosing abandons the waiter with false, not degraded.
	r = newReplication(mklog(), true, "")
	seq = r.log.Append([]repl.Op{{Code: uint8(check.OpPut), Arg1: 1}})
	r.addSub(1)
	go func() { released <- r.waitAcked(seq) }()
	waitFor(t, 5*time.Second, "waiter parked", func() bool { return r.waiters.Load() == 1 })
	r.markClosing()
	if ok := <-released; ok {
		t.Error("teardown-released wait returned true; the held response would escape")
	}
	if d := r.degraded.Load(); d != 0 {
		t.Errorf("teardown release counted degraded (%d)", d)
	}
	// Closing wins over later release paths too.
	if r.waitAcked(seq) {
		t.Error("waitAcked after markClosing returned true")
	}
}

// TestReplGauges checks the replication block of the Prometheus surface
// on both roles.
func TestReplGauges(t *testing.T) {
	primary, pAddr := bootRepl(t, Config{Workload: "map", Keys: 32, ReplAck: "async"})
	replica, _ := bootRepl(t, Config{Workload: "map", Keys: 32, ReplicaOf: pAddr})

	c, err := DialContext(context.Background(), pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if _, err := c.Op(check.OpPut, uint64(i), uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "replica catch-up", caughtUp(primary, replica))

	var pOut, rOut strings.Builder
	if err := primary.Metrics().WritePrometheus(&pOut); err != nil {
		t.Fatal(err)
	}
	if err := replica.Metrics().WritePrometheus(&rOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rtled_repl_role{role="primary"} 0`,
		"rtled_repl_log_seq",
		"rtled_repl_acked_seq",
		"rtled_repl_lag_entries",
		"rtled_repl_subscribers 1",
		"rtled_repl_log_entries 20",
		"rtled_repl_log_bytes",
		"rtled_repl_log_floor 0",
		"rtled_repl_log_truncations_total 0",
	} {
		if !strings.Contains(pOut.String(), want) {
			t.Errorf("primary metrics missing %q", want)
		}
	}

	// Compaction moves the floor series and bumps the truncation counter.
	// Wait for the replica's acks to land on the primary first: the cut is
	// bounded by the slowest subscriber's acknowledgement.
	waitFor(t, 10*time.Second, "subscriber acks", func() bool {
		return primary.repl.minAcked() >= primary.repl.log.HighWater()
	})
	snapPath := filepath.Join(t.TempDir(), "state.snap")
	primary.cfg.SnapFile = snapPath
	if _, err := primary.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	var pOut2 strings.Builder
	if err := primary.Metrics().WritePrometheus(&pOut2); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rtled_repl_log_entries 0",
		"rtled_repl_log_floor 20",
		"rtled_repl_log_truncations_total 1",
	} {
		if !strings.Contains(pOut2.String(), want) {
			t.Errorf("post-compaction metrics missing %q", want)
		}
	}
	for _, want := range []string{
		`rtled_repl_role{role="replica"} 1`,
		"rtled_repl_applied_seq",
	} {
		if !strings.Contains(rOut.String(), want) {
			t.Errorf("replica metrics missing %q", want)
		}
	}
}

// TestBootReplayFromLog checks crash recovery through the file-backed
// log: a server rebooted onto its predecessor's log serves the
// predecessor's final state.
func TestBootReplayFromLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "repl.log")

	srv, err := New(Config{Workload: "map", Keys: 32, Addr: "127.0.0.1:0", ReplLog: logPath})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }() // shut down cleanly below
	c, err := DialContext(context.Background(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if resp, err := c.Op(check.OpPut, uint64(i%32), uint64(2000+i), 0); err != nil || resp.Status != StatusOK {
			t.Fatalf("put %d: %v / %v", i, err, resp.Status)
		}
	}
	_ = c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	reborn, addr2 := bootRepl(t, Config{Workload: "map", Keys: 32, ReplLog: logPath})
	if hw := reborn.repl.log.HighWater(); hw == 0 {
		t.Fatal("reborn server loaded an empty log")
	}
	c2, err := DialContext(context.Background(), addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for key := uint64(0); key < 32; key++ {
		// The last write to key k was 2000 + the largest i < 40 with
		// i % 32 == k.
		last := uint64(2000 + int(key) + 32*((40-1-int(key))/32))
		resp, err := c2.Op(check.OpGet, key, 0, 0)
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("get %d after replay: %v / %v", key, err, resp.Status)
		}
		if !resp.Results[0].Ok || resp.Results[0].Ret != last {
			t.Fatalf("key %d = (%d,%v) after replay, want (%d,true)",
				key, resp.Results[0].Ret, resp.Results[0].Ok, last)
		}
	}
}

// TestFailoverUnderLoad is the in-process version of the e2e failover
// scenario and the PR's central soundness claim: kill the primary under
// recorded load, promote the replica, and the merged wire-level history
// — with lost-response operations recorded as pending — stays
// linearizable. Sync ack mode makes the claim "zero acknowledged-write
// loss": every response the clients saw came from an entry the replica
// had already acknowledged.
func TestFailoverUnderLoad(t *testing.T) {
	primary, pAddr := bootRepl(t, Config{Workload: "map", Keys: 48, Shards: 2, ReplAck: "sync"})
	replica, rAddr := bootRepl(t, Config{Workload: "map", Keys: 48, Shards: 2, ReplicaOf: pAddr, ReplAck: "sync"})

	waitFor(t, 10*time.Second, "replica subscription", func() bool {
		primary.repl.mu.Lock()
		n := len(primary.repl.subs)
		primary.repl.mu.Unlock()
		return n == 1
	})

	// Kill the primary mid-run, then promote the replica after a beat of
	// dead air so clients exercise the not-primary retry path too.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(150 * time.Millisecond)
		_ = primary.Close()
		time.Sleep(100 * time.Millisecond)
		if _, err := replica.Promote(context.Background()); err != nil {
			t.Errorf("Promote: %v", err)
		}
	}()

	res, err := RunLoad(LoadConfig{
		Addrs:    []string{pAddr, rAddr},
		Workload: "map",
		Keys:     48,
		Conns:    2,
		Pipeline: 4,
		Ops:      1 << 30, // the duration, not the budget, ends the run
		Duration: 1500 * time.Millisecond,
		ReadPct:  60,
		BatchPct: 5,
		Check:    true,
	})
	<-killed
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if !res.Checked || !res.Linearizable {
		t.Fatalf("history not linearizable across failover: %s", res.CheckDetail)
	}
	if res.Reconnects == 0 {
		t.Error("no reconnects recorded — the kill did not land mid-run")
	}
	if res.Ops == 0 {
		t.Error("no completed operations recorded")
	}
	if res.FailoverWindow <= 0 {
		t.Error("no failover window measured")
	}
	t.Logf("failover run: ops=%d cut=%d notPrimaryRetries=%d reconnects=%d window=%v",
		res.Ops, res.Cut, res.NotPrimaryRetries, res.Reconnects, res.FailoverWindow)
}

// TestReplicaCloseRacesFirstDial closes replicas while their runner is
// somewhere between dialling the primary and following the stream. Close
// severs only a connection the runner has already published, so a runner
// that publishes after that must notice the stop itself; before it did,
// Close waited forever on a runner blocked reading a live stream (a fifth
// of lone TestErrNotPrimaryTyped runs hung in their cleanup).
func TestReplicaCloseRacesFirstDial(t *testing.T) {
	_, pAddr := bootRepl(t, Config{Workload: "map", Keys: 32, ReplAck: "async"})
	for i := 0; i < 40; i++ {
		srv, err := New(Config{Workload: "map", Keys: 32, ReplicaOf: pAddr, Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Listen(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%8) * 250 * time.Microsecond) // sweep the dial window
		closed := make(chan struct{})
		go func() {
			_ = srv.Close() // the listener never served; only the hang matters
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("replica %d: Close did not return", i)
		}
	}
}
