package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtle/internal/check"
	"rtle/internal/repl"
)

// TestTeardownUnderLoad hammers the response path from several pipelined
// net.Pipe connections and tears the server down hard mid-flight. The
// interesting properties are invisible on success and loud under -race or
// servePipe's overlapping-write check: no connection's buffer is touched
// by two goroutines, a reader whose write failed on the closed socket
// exits, and every connection's teardown completes.
func TestTeardownUnderLoad(t *testing.T) {
	srv, err := New(Config{Workload: "set", Keys: 128, Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		peer, fr := servePipe(t, srv)
		wg.Add(2)
		go func(seed uint64) {
			defer wg.Done()
			var buf []byte
			for j := uint64(0); j < 500; j++ {
				req := Request{ID: uint32(j), Op: check.OpInsert, Arg1: (seed*131 + j) % 128}
				if j%3 == 0 {
					req.Op = check.OpContains
				}
				buf = AppendRequest(buf[:0], &req)
				if _, err := peer.Write(buf); err != nil {
					return // teardown reached this connection
				}
			}
		}(uint64(i))
		go func() {
			defer wg.Done()
			for {
				if _, err := fr.next(); err != nil {
					return
				}
			}
		}()
	}

	// Let the load ramp, then yank everything out from under it.
	time.Sleep(5 * time.Millisecond)
	_ = srv.Close()
	wg.Wait()
	done := make(chan struct{})
	go func() {
		srv.connsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a connection's teardown never finished after Close")
	}
}

// TestAffinityRunDelivery pushes a deeply pipelined single-shard burst
// through the read loop and checks runs actually formed: every op
// completes, each on a run planned onto its shard, and runs hold more than
// one op — at most Config.Coalesce.
func TestAffinityRunDelivery(t *testing.T) {
	srv, err := New(Config{Workload: "set", Keys: 64, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer, fr := servePipe(t, srv)

	// One write carries the whole burst, so frames sit buffered in the
	// server's reader — the condition runs grow on. A net.Pipe write waits
	// for the reader, and the reader answers as it goes, so the answers are
	// read concurrently.
	const ops = 2000
	var burst []byte
	for j := 0; j < ops; j++ {
		burst = AppendRequest(burst, &Request{ID: uint32(j), Op: check.OpInsert, Arg1: uint64(j % 64)})
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := peer.Write(burst)
		wrote <- err
	}()
	for j := 0; j < ops; j++ {
		payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := DecodeResponse(payload); err != nil || resp.Status != StatusOK {
			t.Fatalf("op answered %+v (%v), want ok", resp, err)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if got := m.affineOps.Load(); got != ops {
		t.Errorf("%d ops ran in planned runs, want all %d", got, ops)
	}
	runs := m.affineRuns.Load()
	if runs == 0 || m.affineOps.Load() <= runs {
		t.Errorf("affine ops %d never exceeded runs %d: runs all had length 1", m.affineOps.Load(), runs)
	}
	if fewest := uint64(ops / srv.cfg.Coalesce); runs < fewest {
		t.Errorf("%d runs for %d ops: a run outgrew Coalesce %d", runs, ops, srv.cfg.Coalesce)
	}
}

// failAfterConn lets its first writes through and fails every later one;
// ok counts the writes left.
type failAfterConn struct {
	net.Conn
	ok atomic.Int32
}

func (c *failAfterConn) Write(p []byte) (int, error) {
	if c.ok.Add(-1) < 0 {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestFailedWriteEndsConnection: a write that fails after the hello ends
// the connection — the reader stops executing requests whose answers could
// go nowhere and the teardown runs — even while the peer keeps sending.
func TestFailedWriteEndsConnection(t *testing.T) {
	srv, err := New(Config{Workload: "set", Keys: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer, _ := serveWrapped(t, srv, func(nc net.Conn) net.Conn {
		fc := &failAfterConn{Conn: nc}
		fc.ok.Store(1) // the server's hello
		return fc
	})
	go func() {
		var buf []byte
		for j := uint32(1); ; j++ {
			buf = AppendRequest(buf[:0], &Request{ID: j, Op: check.OpContains, Arg1: uint64(j % 64)})
			if _, err := peer.Write(buf); err != nil {
				return // the server end is closed
			}
		}
	}()
	m := srv.Metrics()
	waitFor(t, 10*time.Second, "the connection's teardown after its failed write", func() bool {
		return m.connsOpen.Load() == 0
	})
}

// TestSubscriberStreamOneWriter: a replication stream is written by the
// subscriber's reader until the streamer starts, and by the streamer alone
// afterwards; servePipe's check fails the test on any overlap. Another
// connection's puts feed the stream meanwhile, and every one arrives, in
// log order.
func TestSubscriberStreamOneWriter(t *testing.T) {
	srv, err := New(Config{Workload: "map", Keys: 64, ReplAck: "async"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, fr := servePipe(t, srv)
	if _, err := sub.Write(AppendRequest(nil, &Request{ID: 1, Op: OpReplSubscribe, Arg1: 1})); err != nil {
		t.Fatal(err)
	}
	payload, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := DecodeResponse(payload); err != nil || resp.Status != StatusOK {
		t.Fatalf("subscribe answered %+v (%v), want ok", resp, err)
	}

	const puts = 200
	client, cfr := servePipe(t, srv)
	wrote := make(chan error, 1)
	go func() {
		var buf []byte
		for j := uint32(1); j <= puts; j++ {
			buf = AppendRequest(buf[:0], &Request{ID: j, Op: check.OpPut, Arg1: uint64(j % 64), Arg2: uint64(j)})
			if _, err := client.Write(buf); err != nil {
				wrote <- err
				return
			}
			payload, err := cfr.next()
			if err != nil {
				wrote <- err
				return
			}
			if resp, err := DecodeResponse(payload); err != nil || resp.Status != StatusOK {
				wrote <- fmt.Errorf("put %d answered %+v (%v)", j, resp, err)
				return
			}
		}
		wrote <- nil
	}()

	next, ops := uint64(1), 0
	for ops < puts {
		payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		e, err := repl.DecodeEntryPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != next {
			t.Fatalf("entry %d arrived, want %d", e.Seq, next)
		}
		next++
		ops += len(e.Ops)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}
