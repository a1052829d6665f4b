package server

import (
	"net"
	"testing"

	"rtle/internal/check"
)

// fastPathHarness drives the wire fast path in process, end to end: a
// request frame is decoded, validated and admitted as a run (flushRun),
// executed by the reader on a section borrowed from its shard, and its
// answer leaves through the connection's output buffer — endBurst's one
// write — into a sink that keeps the bytes for the client-side decode. Only the socket and the read loop's frame reading
// are left out.
type fastPathHarness struct {
	srv    *Server
	c      *conn
	sink   *sinkConn
	reqBuf []byte
	cliRes [1]Result
}

// sinkConn is a net.Conn whose writes land in one reused buffer; only
// Write is ever called.
type sinkConn struct {
	net.Conn
	last []byte
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.last = append(s.last[:0], p...)
	return len(p), nil
}

func newFastPathHarness(tb testing.TB) *fastPathHarness {
	tb.Helper()
	srv, err := New(Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64})
	if err != nil {
		tb.Fatal(err)
	}
	sink := &sinkConn{last: make([]byte, 0, 64)}
	return &fastPathHarness{
		srv:    srv,
		c:      newConn(sink, &srv.metrics, srv.cfg.Coalesce),
		sink:   sink,
		reqBuf: make([]byte, 0, 64),
	}
}

// serve pushes one request through the wire fast path: encode the frame,
// decode it back (the server's read side), validate, plan, admit and
// execute it as a one-op run, write the answer in the burst's one write,
// and decode the response into the client-side result scratch — everything
// both ends do per request except the socket itself.
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
	run := &h.c.run
	run.add(h.c, decoded)
	run.tp, run.sh = tp, tp.router.plan(&decoded).shard
	h.srv.flushRun(h.c)
	h.srv.endBurst(h.c)

	// Client side: decode the response into the caller's result scratch,
	// as Client.readLoop does for a DoInto caller.
	cresp, err := DecodeResponseInto(h.sink.last[4:], h.cliRes[:])
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
// count at zero: with the connection and section scratch reused, serving
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
	run() // warm up: the first call grows the scratch buffers to capacity
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Errorf("wire fast path allocates %.1f times per request, want 0", allocs)
	}
}
