package server

import (
	"io"
	"net"
	"testing"

	"rtle/internal/check"
)

// fastPathHarness is an in-process single-op serving pipeline: the real
// router over the real shards, with one worker's section per shard standing
// in for the worker pool and the worker's own runSection executing the
// block. Buffers mirror the per-connection scratch the serving loops reuse.
type fastPathHarness struct {
	srv     *Server
	secs    []*section
	reqBuf  []byte
	entries []BatchEntry // the one-operation group handed to runSection

	// Response-side scratch, mirroring writeLoop's conn-lifetime iovec
	// backing array, its boxed view (see writeLoop for why the view must
	// not be re-boxed per batch), and the client's per-slot decode scratch.
	bufs   net.Buffers
	view   *net.Buffers
	sink   io.Writer
	cliRes [1]Result
	resp   Response
}

func newFastPathHarness(tb testing.TB) *fastPathHarness {
	tb.Helper()
	srv, err := New(Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64})
	if err != nil {
		tb.Fatal(err)
	}
	h := &fastPathHarness{
		srv:     srv,
		reqBuf:  make([]byte, 0, 64),
		entries: make([]BatchEntry, 1),
		bufs:    make(net.Buffers, 1),
		view:    new(net.Buffers),
		sink:    io.Discard,
	}
	for _, sh := range srv.top().shards {
		h.secs = append(h.secs, newSection(sh, 1))
	}
	return h
}

// serve pushes one request through the wire fast path end to end: encode
// the frame, decode it back (the server's read side), validate, route,
// execute the operation in an atomic block on the routed shard, encode the
// response into a pooled frame buffer, flush it through the vectored
// writer, recycle the buffer, and decode the response into the
// client-side result scratch — everything both ends do per request except
// the socket itself and the queue handoff.
func (h *fastPathHarness) serve(req *Request) error {
	h.reqBuf = AppendRequest(h.reqBuf[:0], req)
	decoded, err := DecodeRequest(h.reqBuf[4:])
	if err != nil {
		return err
	}
	if err := h.srv.validate(&decoded); err != nil {
		return err
	}
	tp := h.srv.top()
	plan := tp.router.plan(&decoded)
	// The worker's own block runner, post-commit bookkeeping included (an
	// insert consumed the handle's spare node; runSection replaces it before
	// the next operation reuses the handle).
	sec := h.secs[plan.shard]
	h.entries[0] = BatchEntry{Op: decoded.Op, Arg1: decoded.Arg1, Arg2: decoded.Arg2, Arg3: decoded.Arg3}
	h.srv.runSection(tp.shards[plan.shard], sec, h.entries)
	h.resp = Response{ID: decoded.ID, Status: StatusOK, Results: sec.results[:1]}

	// Response side: pooled frame, vectored flush, recycle — writeLoop's
	// steady state with a one-frame batch.
	f := getFrame()
	f.b = AppendResponse(f.b, &h.resp)
	h.bufs[0] = f.b
	*h.view = h.bufs[:1]
	if err := writeBuffers(h.sink, h.view); err != nil {
		return err
	}

	// Client side: decode the response into the caller's result scratch,
	// as Client.readLoop does for a DoInto caller.
	cresp, err := DecodeResponseInto(f.b[4:], h.cliRes[:])
	putFrame(f)
	if err != nil {
		return err
	}
	if cresp.ID != decoded.ID || cresp.Status != StatusOK {
		return errShort
	}
	return nil
}

// BenchmarkWireFastPathAllocs measures the per-request allocation cost of
// the wire fast path. The hotalloc pass proves this path free of *new*
// allocation sites; this benchmark prices the waived ones, so a regression
// shows up as a number even when it hides behind an //rtle:ignore.
func BenchmarkWireFastPathAllocs(b *testing.B) {
	h := newFastPathHarness(b)
	req := Request{Op: check.OpPut, Arg2: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint32(i)
		req.Arg1 = uint64(i % 64)
		if err := h.serve(&req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireFastPathAllocBudget pins the fast path's steady-state allocation
// count at zero: with the connection and worker scratch reused, serving
// one single-op request must not allocate at all. A nonzero count means a
// new allocation crept onto the path — the dynamic twin of the hotalloc
// pass's static claim.
func TestWireFastPathAllocBudget(t *testing.T) {
	h := newFastPathHarness(t)
	req := Request{Op: check.OpPut, Arg2: 42}
	id := uint32(0)
	run := func() {
		id++
		req.ID = id
		req.Arg1 = uint64(id % 64)
		if err := h.serve(&req); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up: the first call grows the frame buffers to capacity
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Errorf("wire fast path allocates %.1f times per request, want 0", allocs)
	}
}
