package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rtle/internal/check"
)

// throttledWriter accepts at most cap bytes per Write call, returning
// io.ErrShortWrite for the remainder — the contract a non-blocking socket
// exhibits when its send buffer fills mid-writev.
type throttledWriter struct {
	cap int
	out bytes.Buffer
}

func (w *throttledWriter) Write(p []byte) (int, error) {
	n := len(p)
	if n > w.cap {
		n = w.cap
	}
	w.out.Write(p[:n])
	if n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

// TestWriteBuffersPartialWrite drives the vectored flush through a writer
// that keeps truncating: writeBuffers must resume after every short write
// and deliver the whole batch, in order, without duplicating or dropping a
// byte.
func TestWriteBuffersPartialWrite(t *testing.T) {
	frames := [][]byte{
		[]byte("alpha-frame"),
		[]byte("b"),
		[]byte("gamma-gamma-gamma-gamma"),
		[]byte("delta"),
	}
	var want []byte
	for _, f := range frames {
		want = append(want, f...)
	}
	for _, chunk := range []int{1, 2, 3, 7, 1 << 20} {
		w := &throttledWriter{cap: chunk}
		v := make(net.Buffers, len(frames))
		for i, f := range frames {
			v[i] = f
		}
		if err := writeBuffers(w, &v); err != nil {
			t.Fatalf("cap %d: writeBuffers: %v", chunk, err)
		}
		if !bytes.Equal(w.out.Bytes(), want) {
			t.Fatalf("cap %d: wrote %q, want %q", chunk, w.out.Bytes(), want)
		}
		if len(v) != 0 {
			t.Fatalf("cap %d: %d buffers left unconsumed", chunk, len(v))
		}
	}
}

// stuckWriter makes no progress at all.
type stuckWriter struct{}

func (stuckWriter) Write(p []byte) (int, error) { return 0, io.ErrShortWrite }

// errWriter fails with a real transport error after accepting some bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("peer reset")
	}
	n := len(p)
	if n > w.n {
		n = w.n
	}
	w.n -= n
	if n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

// TestWriteBuffersNoProgress checks the two fatal branches: a writer that
// accepts nothing must surface io.ErrShortWrite instead of spinning, and a
// real transport error must pass through once progress stops.
func TestWriteBuffersNoProgress(t *testing.T) {
	v := net.Buffers{[]byte("payload")}
	if err := writeBuffers(stuckWriter{}, &v); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("stuck writer: got %v, want io.ErrShortWrite", err)
	}
	v = net.Buffers{[]byte("payload-that-does-not-fit")}
	if err := writeBuffers(&errWriter{n: 4}, &v); err == nil || errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("failing writer: got %v, want the transport error", err)
	}
}

// TestFramePoolTeardownRace hammers the pooled response path from several
// pipelined net.Pipe connections and tears the server down hard mid-flight.
// The interesting properties are invisible on success and loud under
// -race: no frame is recycled while a flush still holds it, the dead queue
// keeps recycling after the socket dies, no sender blocks on a dead peer,
// and every connection's teardown completes.
func TestFramePoolTeardownRace(t *testing.T) {
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

// TestFlushCombining holds the output queue to its contract over a
// net.Pipe, whose writes complete only as the peer reads: concurrent
// senders each get every frame written exactly once, whole and in their own
// order; a frame queued during another goroutine's flush is written by that
// flush before it clears flushing; and after a write error the frames are
// recycled and no sender blocks.
func TestFlushCombining(t *testing.T) {
	// frame encodes (sender, seq) as one response frame.
	frame := func(sender, seq int) *frameBuf {
		f := getFrame()
		f.b = AppendResponse(f.b, &Response{ID: uint32(sender<<16 | seq), Status: StatusOK})
		return f
	}

	t.Run("senders", func(t *testing.T) {
		server, peer := net.Pipe()
		defer server.Close()
		defer peer.Close()
		c := newConn(server, &Metrics{}, 8)
		const senders, each = 8, 200
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					c.send(frame(g, i))
				}
			}(g)
		}
		next := make([]int, senders)
		fr := frameReader{r: bufio.NewReader(peer)}
		for n := 0; n < senders*each; n++ {
			payload, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			resp, err := DecodeResponse(payload)
			if err != nil {
				t.Fatalf("frame %d torn: %v", n, err)
			}
			g, seq := int(resp.ID>>16), int(resp.ID&0xffff)
			if g >= senders || seq != next[g] {
				t.Fatalf("sender %d frame %d arrived, want its frame %d", g, seq, next[g])
			}
			next[g]++
		}
		wg.Wait()
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.flushing || len(c.pending) != 0 {
			t.Errorf("queue left flushing=%v with %d frames after every send returned", c.flushing, len(c.pending))
		}
	})

	t.Run("joins-running-flush", func(t *testing.T) {
		server, peer := net.Pipe()
		defer server.Close()
		defer peer.Close()
		c := newConn(server, &Metrics{}, 8)
		first := make(chan struct{})
		go func() {
			c.send(frame(0, 0)) // blocks in its write: nobody reads yet
			close(first)
		}()
		waitFor(t, 10*time.Second, "the first flush", func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.flushing
		})
		c.send(frame(1, 0)) // must join the running flush and return at once
		fr := frameReader{r: bufio.NewReader(peer)}
		for _, want := range []uint32{0, 1 << 16} {
			payload, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := DecodeResponse(payload); err != nil || resp.ID != want {
				t.Fatalf("read %+v (%v), want id %#x", resp, err, want)
			}
		}
		<-first
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.flushing || len(c.pending) != 0 {
			t.Errorf("the flusher returned with flushing=%v and %d frames queued", c.flushing, len(c.pending))
		}
	})

	t.Run("write-error", func(t *testing.T) {
		server, peer := net.Pipe()
		defer server.Close()
		c := newConn(server, &Metrics{}, 8)
		// One flusher stuck on the unread pipe, senders queued up behind it
		// past the bound, then the peer goes away.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2*maxQueuedFrames; i++ {
					c.send(frame(g, i))
				}
			}(g)
		}
		waitFor(t, 10*time.Second, "a full queue behind the stuck flush", func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return len(c.pending) == maxQueuedFrames
		})
		_ = peer.Close()
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a sender blocked on a dead connection")
		}
		c.send(frame(9, 0)) // a dead queue recycles at once
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.dead || c.flushing || len(c.pending) != 0 {
			t.Errorf("after the write error: dead=%v flushing=%v, %d frames still queued", c.dead, c.flushing, len(c.pending))
		}
	})
}
