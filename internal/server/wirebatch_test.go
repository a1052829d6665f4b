package server

import (
	"bytes"
	"context"
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
// pipelined connections and tears the server down hard mid-flight. The
// interesting properties are invisible on success and loud under -race: no
// frame is recycled while the write loop still holds it, the dead-drain
// branch keeps recycling after the socket dies, and no worker sends on a
// closed out channel.
func TestFramePoolTeardownRace(t *testing.T) {
	srv, err := New(Config{Workload: "set", Keys: 128, Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := DialContext(context.Background(), addr.String())
			if err != nil {
				return // the server may already be tearing down
			}
			defer c.Close()
			var res [1]Result
			var req Request
			for j := uint64(0); j < 500; j++ {
				req = Request{Op: check.OpInsert, Arg1: (seed*131 + j) % 128}
				if j%3 == 0 {
					req.Op = check.OpContains
				}
				if _, err := c.DoInto(&req, res[:]); err != nil {
					return // teardown reached this connection
				}
			}
		}(uint64(i))
	}

	// Let the load ramp, then yank everything out from under it.
	time.Sleep(5 * time.Millisecond)
	_ = srv.Close()
	wg.Wait()
}

// TestAffinityRunDelivery pushes a deeply pipelined single-shard burst
// through a live server and checks the affinity path actually engaged: the
// ops all complete, and the affine counters account a multi-op run.
func TestAffinityRunDelivery(t *testing.T) {
	srv, err := New(Config{Workload: "set", Keys: 64, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	c, err := DialContext(context.Background(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pipeline from many goroutines over one connection so bursts of
	// frames sit buffered in the server's reader — the condition affinity
	// runs chain on.
	const ops = 2000
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var res [1]Result
			var req Request
			for j := 0; j < ops/16; j++ {
				req = Request{Op: check.OpInsert, Arg1: uint64((g*97 + j) % 64)}
				resp, err := c.DoInto(&req, res[:])
				if err != nil {
					t.Errorf("op failed: %v", err)
					return
				}
				if resp.Status != StatusOK && resp.Status != StatusBusy {
					t.Errorf("op answered %v", resp.Status)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	m := srv.Metrics()
	if m.affineOps.Load() == 0 {
		t.Error("a 16-deep pipelined single-shard burst never took the affinity run path")
	}
	if runs := m.affineRuns.Load(); runs > 0 && m.affineOps.Load() <= runs {
		t.Errorf("affine ops %d never exceeded runs %d: chains all had length 1", m.affineOps.Load(), runs)
	}
}
