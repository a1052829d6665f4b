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
	"rtle/internal/snap"
)

// flatten collapses a snapshot into one key→value map, failing on a key
// captured twice — shards partition the key space, so a duplicate means
// the cut double-counted.
func flatten(t *testing.T, sn *snap.Snapshot) map[uint64]uint64 {
	t.Helper()
	m := make(map[uint64]uint64)
	for _, items := range sn.Shards {
		for _, it := range items {
			if _, dup := m[it.Key]; dup {
				t.Fatalf("snapshot repeats key %d", it.Key)
			}
			m[it.Key] = it.Val
		}
	}
	return m
}

// sameState compares two flattened snapshots.
func sameState(t *testing.T, want, got map[uint64]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("state sizes differ: %d vs %d keys", len(want), len(got))
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("key %d missing from restored state", k)
		}
		if gv != v {
			t.Fatalf("key %d = %d in restored state, want %d", k, gv, v)
		}
	}
}

// TestSnapshotEqualsLogPrefix is the subsystem's core soundness claim: a
// snapshot captured under concurrent load at sequence S holds exactly the
// state a fresh server reaches by replaying the log prefix through S —
// for every workload, at one shard and at several.
func TestSnapshotEqualsLogPrefix(t *testing.T) {
	for _, w := range []string{"set", "map", "bank"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", w, shards), func(t *testing.T) {
				keys := 64
				if w == "bank" {
					keys = 16
				}
				srv, addr := bootRepl(t, Config{Workload: w, Keys: keys, Shards: shards, ReplAck: "async"})

				// Writers keep mutating while the cut is taken: the capture
				// must land on a consistent sequence anyway.
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < 3; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						c, err := DialContext(context.Background(), addr)
						if err != nil {
							t.Error(err)
							return
						}
						defer c.Close()
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							key := uint64((g*31 + i) % keys)
							var resp Response
							var err error
							switch w {
							case "set":
								if i%3 == 0 {
									resp, err = c.Op(check.OpRemove, key, 0, 0)
								} else {
									resp, err = c.Op(check.OpInsert, key, 0, 0)
								}
							case "map":
								if i%5 == 0 {
									resp, err = c.Op(check.OpDelete, key, 0, 0)
								} else {
									resp, err = c.Op(check.OpPut, key, uint64(1000*g+i), 0)
								}
							case "bank":
								to := (key + 1 + uint64(i)%uint64(keys-1)) % uint64(keys)
								resp, err = c.Op(check.OpTransfer, key, to, 1+uint64(i%7))
							}
							if err != nil || resp.Status != StatusOK {
								t.Errorf("write %d: %v / %v", i, err, resp.Status)
								return
							}
						}
					}(g)
				}

				waitFor(t, 10*time.Second, "log growth", func() bool {
					return srv.repl.log.HighWater() >= 50
				})
				sn, err := srv.CaptureSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				close(stop)
				wg.Wait()
				if sn.Seq == 0 {
					t.Fatal("capture stamped seq 0 after 50+ logged writes")
				}

				// A fresh server replaying exactly the prefix through sn.Seq
				// must land on the captured state, bit for bit.
				fresh, err := New(Config{Workload: w, Keys: keys, Shards: shards, ReplAck: "async"})
				if err != nil {
					t.Fatal(err)
				}
				var applied uint64
			replay:
				for seq := uint64(0); ; {
					entries := srv.repl.log.From(seq+1, 256)
					if len(entries) == 0 {
						break
					}
					for i := range entries {
						if entries[i].Seq > sn.Seq {
							break replay
						}
						if err := fresh.applyEntry(&entries[i], false); err != nil {
							t.Fatal(err)
						}
						seq = entries[i].Seq
						applied++
					}
				}
				if applied != sn.Seq {
					t.Fatalf("replayed %d entries for a cut at seq %d", applied, sn.Seq)
				}
				fsn, err := fresh.CaptureSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				want, got := flatten(t, sn), flatten(t, fsn)
				sameState(t, want, got)
				if w == "bank" {
					var sum uint64
					for _, v := range want {
						sum += v
					}
					if total := uint64(keys) * BankInitial; sum != total {
						t.Fatalf("snapshot balances sum to %d, want %d", sum, total)
					}
				}
			})
		}
	}
}

// TestFetchSnapshotWire round-trips a snapshot through the rtled/1 stream:
// OpSnapshot on a live connection, chunked frames, reassembly — with a key
// space wide enough to force multiple item chunks per shard.
func TestFetchSnapshotWire(t *testing.T) {
	const keys = 1500 // > snap.MaxChunkItems, so the stream must chunk
	srv, addr := bootRepl(t, Config{Workload: "map", Keys: keys, Shards: 2, ReplAck: "async"})

	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for base := 0; base < keys; base += 500 {
		entries := make([]BatchEntry, 500)
		for i := range entries {
			k := uint64(base + i)
			entries[i] = BatchEntry{Op: check.OpPut, Arg1: k, Arg2: 3*k + 1}
		}
		if resp, err := c.Batch(entries); err != nil || resp.Status != StatusOK {
			t.Fatalf("seed batch at %d: %v / %v", base, err, resp.Status)
		}
	}

	got, err := FetchSnapshot(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq {
		t.Errorf("fetched seq %d, server is at %d", got.Seq, want.Seq)
	}
	sameState(t, flatten(t, want), flatten(t, got))
	if n := len(flatten(t, got)); n != keys {
		t.Errorf("fetched %d items, want %d", n, keys)
	}

	// The connection that served the stream keeps answering ordinary
	// requests afterwards — the snapshot is not a terminal exchange.
	sc, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if resp, err := sc.Op(check.OpGet, 7, 0, 0); err != nil || resp.Status != StatusOK {
		t.Fatalf("get after snapshot: %v / %v", err, resp.Status)
	}
}

// TestReshardUnderLoad drives recorded load through two live reshards
// (1→4→2) and checks the merged wire history stays linearizable: the
// swap's drain-capture-restore-swap window must be invisible to clients
// beyond a stall.
func TestReshardUnderLoad(t *testing.T) {
	srv, addr := bootRepl(t, Config{Workload: "map", Keys: 48, Shards: 1})

	if err := srv.Reshard(0); err == nil {
		t.Fatal("Reshard(0) succeeded")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(100 * time.Millisecond)
		if err := srv.Reshard(4); err != nil {
			t.Errorf("Reshard(4): %v", err)
		}
		time.Sleep(100 * time.Millisecond)
		if err := srv.Reshard(2); err != nil {
			t.Errorf("Reshard(2): %v", err)
		}
	}()

	res, err := RunLoad(LoadConfig{
		Addr:     addr,
		Workload: "map",
		Keys:     48,
		Conns:    2,
		Pipeline: 4,
		Ops:      1 << 30, // the duration, not the budget, ends the run
		Duration: 600 * time.Millisecond,
		ReadPct:  60,
		BatchPct: 10,
		Check:    true,
	})
	<-done
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if !res.Checked || !res.Linearizable {
		t.Fatalf("history not linearizable across reshards: %s", res.CheckDetail)
	}
	if len(res.WitnessViolations) != 0 {
		t.Fatalf("witness violations across reshards: %v", res.WitnessViolations)
	}
	if res.Ops == 0 {
		t.Error("no completed operations recorded")
	}
	if got := srv.Shards(); got != 2 {
		t.Errorf("server serves %d shards after reshard, want 2", got)
	}
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.ServerShards(); got != 2 {
		t.Errorf("hello advertises %d shards after reshard, want 2", got)
	}
}

// TestReplicaBootstrapAfterCompaction checks the fast-bootstrap path: a
// replica subscribing below the compacted log's floor receives a snapshot
// and the log tail instead of an error, and converges to the primary's
// exact state.
func TestReplicaBootstrapAfterCompaction(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "state.snap")
	primary, pAddr := bootRepl(t, Config{
		Workload: "map", Keys: 32, Shards: 2, ReplAck: "async", SnapFile: snapPath,
	})

	c, err := DialContext(context.Background(), pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 30; i++ {
		if resp, err := c.Op(check.OpPut, uint64(i%32), uint64(4000+i), 0); err != nil || resp.Status != StatusOK {
			t.Fatalf("put %d: %v / %v", i, err, resp.Status)
		}
	}
	floor, err := primary.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if floor == 0 {
		t.Fatal("compaction left the floor at 0")
	}
	if got := primary.repl.log.From(1, 1); len(got) > 0 && got[0].Seq == 1 {
		t.Fatal("seq 1 survived compaction")
	}
	for i := 30; i < 50; i++ {
		if resp, err := c.Op(check.OpPut, uint64(i%32), uint64(4000+i), 0); err != nil || resp.Status != StatusOK {
			t.Fatalf("put %d: %v / %v", i, err, resp.Status)
		}
	}

	replica, _ := bootRepl(t, Config{Workload: "map", Keys: 32, Shards: 2, ReplicaOf: pAddr})
	waitFor(t, 10*time.Second, "replica catch-up", caughtUp(primary, replica))

	if replica.repl.log.Floor() == 0 {
		t.Error("replica log floor is 0: it replayed entries instead of bootstrapping from a snapshot")
	}
	if err := replica.Reshard(3); err == nil {
		t.Error("Reshard on a replica succeeded")
	}

	psn, err := primary.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rsn, err := replica.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if psn.Seq != rsn.Seq {
		t.Errorf("primary cut at seq %d, replica at %d", psn.Seq, rsn.Seq)
	}
	sameState(t, flatten(t, psn), flatten(t, rsn))
}

// TestBootFromSnapshotAndTruncatedLog checks crash recovery after a
// compaction: a server rebooted onto the snapshot file plus the truncated
// log replays only the suffix above the snapshot's sequence and serves the
// predecessor's final state.
func TestBootFromSnapshotAndTruncatedLog(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workload: "map", Keys: 32, Shards: 2,
		ReplLog:  filepath.Join(dir, "repl.log"),
		SnapFile: filepath.Join(dir, "state.snap"),
		Addr:     "127.0.0.1:0",
	}
	srv, err := New(cfg)
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
	floor, err := srv.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i := 40; i < 60; i++ {
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

	reborn, addr2 := bootRepl(t, cfg)
	if f := reborn.repl.log.Floor(); f != floor {
		t.Errorf("reborn log floor %d, compaction left %d", f, floor)
	}
	c2, err := DialContext(context.Background(), addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for key := uint64(0); key < 32; key++ {
		// The last write to key k was 2000 + the largest i < 60 with
		// i % 32 == k.
		last := uint64(2000 + int(key) + 32*((60-1-int(key))/32))
		resp, err := c2.Op(check.OpGet, key, 0, 0)
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("get %d after compacted reboot: %v / %v", key, err, resp.Status)
		}
		if !resp.Results[0].Ok || resp.Results[0].Ret != last {
			t.Fatalf("key %d = (%d,%v) after compacted reboot, want (%d,true)",
				key, resp.Results[0].Ret, resp.Results[0].Ok, last)
		}
	}
}

// TestBootRejectsCompactedLogWithoutSnapshot: a log whose prefix was
// compacted away cannot boot a server alone — the state below the floor
// lives only in the snapshot, and booting without it would silently serve
// a hole.
func TestBootRejectsCompactedLogWithoutSnapshot(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "repl.log")
	l, err := repl.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append([]repl.Op{{Code: uint8(check.OpPut), Arg1: uint64(i), Arg2: 1}})
	}
	if err := l.TruncateBelow(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Workload: "map", Keys: 32, ReplLog: logPath})
	if err == nil || !strings.Contains(err.Error(), "no snapshot is available") {
		t.Fatalf("boot on a compacted log without a snapshot: err = %v", err)
	}
}

// TestBootRejectsLogFloorAboveSnapshot: a log whose first surviving entry
// sits above the snapshot's sequence has an unrecoverable gap; boot must
// refuse with a clear error instead of replaying across it.
func TestBootRejectsLogFloorAboveSnapshot(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "repl.log")
	snapPath := filepath.Join(dir, "state.snap")
	if err := snap.WriteFile(snapPath, &snap.Snapshot{
		Workload: "map", Keys: 32, Seq: 2,
		Shards: [][]snap.Item{{{Key: 1, Val: 7}}},
	}); err != nil {
		t.Fatal(err)
	}
	l, err := repl.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		l.Append([]repl.Op{{Code: uint8(check.OpPut), Arg1: uint64(i), Arg2: 1}})
	}
	if err := l.TruncateBelow(5); err != nil { // floor 5 > snapshot seq 2
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Workload: "map", Keys: 32, ReplLog: logPath, SnapFile: snapPath})
	if err == nil || !strings.Contains(err.Error(), "above the snapshot sequence") {
		t.Fatalf("boot across a floor/snapshot gap: err = %v", err)
	}
}

// TestAutoCompactor checks the CompactEvery loop end to end: a primary
// configured to compact every N entries raises its log floor on its own
// and counts the truncation in its metrics.
func TestAutoCompactor(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "state.snap")
	primary, pAddr := bootRepl(t, Config{
		Workload: "map", Keys: 32, ReplAck: "async",
		SnapFile: snapPath, CompactEvery: 25,
	})
	c, err := DialContext(context.Background(), pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 60; i++ {
		if resp, err := c.Op(check.OpPut, uint64(i%32), uint64(i), 0); err != nil || resp.Status != StatusOK {
			t.Fatalf("put %d: %v / %v", i, err, resp.Status)
		}
	}
	waitFor(t, 10*time.Second, "auto-compaction", func() bool {
		return primary.repl.log.Floor() > 0
	})
	if st := primary.repl.log.LogStats(); st.Truncations == 0 {
		t.Error("stats recorded no truncation after auto-compaction")
	}
	if sn, err := snap.ReadFile(snapPath); err != nil || sn == nil {
		t.Errorf("auto-compaction left no durable snapshot: %v / %v", sn, err)
	}
}

// TestWarmCheckConsecutiveRuns pins the warm-checking contract: a second
// checked run against the same (now dirty) server seeds its models from a
// snapshot and still verdicts linearizable — previously checking was only
// sound against a fresh server. Bank makes the seeding load-bearing: the
// first run's transfers move balances off BankInitial, so an unseeded
// second check would reject truthful reads.
func TestWarmCheckConsecutiveRuns(t *testing.T) {
	for _, w := range []string{"map", "bank"} {
		t.Run(w, func(t *testing.T) {
			keys := 48
			if w == "bank" {
				keys = 12
			}
			_, addr := bootRepl(t, Config{Workload: w, Keys: keys, Shards: 2, ReplAck: "async"})
			for run := 0; run < 2; run++ {
				res, err := RunLoad(LoadConfig{
					Addr:     addr,
					Workload: w,
					Keys:     keys,
					Conns:    2,
					Pipeline: 4,
					Ops:      400,
					ReadPct:  50,
					Seed:     uint64(run + 1),
					Check:    true,
				})
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if !res.Checked || !res.Linearizable {
					t.Fatalf("run %d not linearizable: %s", run, res.CheckDetail)
				}
				if run == 1 && res.SeedSeq == 0 {
					t.Error("second run's seed carries seq 0; the first run's writes are missing from the cut")
				}
			}
		})
	}
}
