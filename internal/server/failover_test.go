package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"rtle/internal/check"
	"rtle/internal/rng"
)

// fakeHelloServer accepts one connection, answers the hello with the
// given ServerHello, and hands the connection to serve (nil serve just
// holds the connection open until the test ends).
func fakeHelloServer(t *testing.T, hello ServerHello, serve func(nc net.Conn)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		_ = lis.Close()
		close(done)
	})
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr := frameReader{r: bufio.NewReader(nc)}
		if _, err := fr.next(); err != nil { // the client hello; content irrelevant here
			return
		}
		if _, err := nc.Write(AppendServerHello(nil, &hello)); err != nil {
			return
		}
		if serve == nil {
			<-done // hold the connection open until the test ends
			return
		}
		serve(nc)
	}()
	return lis.Addr().String()
}

// TestErrConnClosedTyping pins the error taxonomy failover policy keys
// on: a peer-closed connection surfaces ErrConnClosed, a local Close
// surfaces ErrClosed, and the two are distinguishable with errors.Is.
func TestErrConnClosedTyping(t *testing.T) {
	// Peer close: the fake server drops the connection right after hello.
	addr := fakeHelloServer(t, ServerHello{Version: ProtocolVersion, Shards: 1},
		func(nc net.Conn) { _ = nc.Close() })
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Op(check.OpGet, 1, 0, 0)
	if !errors.Is(err, ErrConnClosed) {
		t.Errorf("peer close surfaced %v, want ErrConnClosed", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Errorf("peer close error %v also matches ErrClosed; the taxonomy must distinguish them", err)
	}
	_ = c.Close()

	// Local close: a real server stays healthy; only the client hangs up.
	_, srvAddr := startServer(t, Config{Workload: "map", Keys: 32})
	c2, err := DialContext(context.Background(), srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	_ = c2.Close()
	_, err = c2.Op(check.OpGet, 1, 0, 0)
	if !errors.Is(err, ErrClosed) {
		t.Errorf("local close surfaced %v, want ErrClosed", err)
	}
	if errors.Is(err, ErrConnClosed) {
		t.Errorf("local close error %v also matches ErrConnClosed", err)
	}
}

// TestFailoverClientReconnects checks the basic ride-through: the client
// survives its server dying and a successor appearing at another address.
func TestFailoverClientReconnects(t *testing.T) {
	cfg := Config{Workload: "map", Keys: 32, Addr: "127.0.0.1:0"}
	srvA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrA, err := srvA.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srvA.Serve() }() // killed abruptly below; the error carries no signal
	_, addrB := startServer(t, Config{Workload: "map", Keys: 32})

	fc, err := NewFailoverClient(FailoverConfig{Addrs: []string{addrA.String(), addrB}})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.Op(check.OpPut, 1, 7, 0); err != nil {
		t.Fatal(err)
	}

	_ = srvA.Close()
	// The in-flight connection dies; the first error is the ambiguous one
	// and must surface unretried. Subsequent requests flow to server B.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := fc.Op(check.OpGet, 1, 0, 0)
		if err == nil && resp.Status == StatusOK {
			break
		}
		if err != nil && !errors.Is(err, ErrConnClosed) {
			t.Fatalf("mid-failover error %v, want ErrConnClosed", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("failover never completed")
		}
	}
	if fc.Reconnects() == 0 {
		t.Error("Reconnects() == 0 after a failover")
	}
}

// TestFailoverClientCloseContextDuringReconnect checks the shutdown path
// the CLI exercises on ctrl-C mid-outage: with every address dead and a
// redial in flight, CloseContext must cancel the dial loop and return
// promptly instead of waiting out the retry window.
func TestFailoverClientCloseContextDuringReconnect(t *testing.T) {
	cfg := Config{Workload: "map", Keys: 32, Addr: "127.0.0.1:0"}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }() // killed abruptly below; the error carries no signal

	fc, err := NewFailoverClient(FailoverConfig{
		Addrs:       []string{addr.String()},
		RetryWindow: time.Minute, // long on purpose: close must not wait it out
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()

	// Drive a request into the dead connection so the redial loop starts.
	opDone := make(chan error, 1)
	go func() {
		_, err := fc.Op(check.OpGet, 1, 0, 0)
		opDone <- err
	}()
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := fc.CloseContext(ctx); err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("CloseContext took %v with a redial in flight", took)
	}
	select {
	case err := <-opDone:
		if err == nil {
			t.Error("request against a dead cluster succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request still parked after CloseContext")
	}
	if _, err := fc.Op(check.OpGet, 1, 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("request after CloseContext returned %v, want ErrClosed", err)
	}
}

// TestErrNotPrimaryTyped pins the typed rejection: a FailoverClient
// request against a following replica surfaces ErrNotPrimary (matchable
// with errors.Is regardless of message wording), while the plain Client
// keeps surfacing the raw status.
func TestErrNotPrimaryTyped(t *testing.T) {
	_, pAddr := bootRepl(t, Config{Workload: "map", Keys: 32, ReplAck: "async"})
	_, rAddr := bootRepl(t, Config{Workload: "map", Keys: 32, ReplicaOf: pAddr})

	fc, err := NewFailoverClient(FailoverConfig{Addrs: []string{rAddr}})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	_, err = fc.Op(check.OpPut, 1, 7, 0)
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("replica write surfaced %v, want ErrNotPrimary", err)
	}
	// The match must survive rewording — it hangs on the wrapped type.
	if !errors.Is(fmt.Errorf("reworded upstream: %w", err), ErrNotPrimary) {
		t.Error("wrapped ErrNotPrimary no longer matches")
	}
	// A same-text error of a different type must NOT match: the taxonomy
	// is typed, not string-compared.
	if errors.Is(errors.New(ErrNotPrimary.Error()), ErrNotPrimary) {
		t.Error("a same-text untyped error matched ErrNotPrimary")
	}

	c, err := DialContext(context.Background(), rAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Op(check.OpPut, 1, 7, 0); err != nil || resp.Status != StatusNotPrimary {
		t.Fatalf("plain client saw %v / %v, want nil error and StatusNotPrimary", err, resp.Status)
	}
}

// scriptedNotPrimaryConn answers the first n requests with a reworded
// error wrapping ErrNotPrimary, then succeeds — the promotion landing.
type scriptedNotPrimaryConn struct{ rejections, n int }

func (f *scriptedNotPrimaryConn) Do(req *Request) (Response, error) {
	if f.n++; f.n <= f.rejections {
		// Deliberately reworded: the retry path must match the type, not
		// the message.
		return Response{}, fmt.Errorf("the primary moved on: %w", ErrNotPrimary)
	}
	return Response{Status: StatusOK, Results: []Result{{Ret: 0, Ok: true}}}, nil
}
func (f *scriptedNotPrimaryConn) DoInto(req *Request, res []Result) (Response, error) {
	return f.Do(req)
}
func (f *scriptedNotPrimaryConn) Batch(entries []BatchEntry) (Response, error) {
	return f.Do(nil)
}
func (f *scriptedNotPrimaryConn) ServerShards() int { return 1 }
func (f *scriptedNotPrimaryConn) Close() error      { return nil }

// TestLoadRetriesNotPrimaryByType drives rtleload's single-operation path
// against a scripted connection whose not-primary errors carry an
// unfamiliar message: the retry path must still classify them by type —
// counted as NotPrimary retries, never cut to pending — and complete the
// operation once the rejections stop.
func TestLoadRetriesNotPrimaryByType(t *testing.T) {
	cfg := LoadConfig{Workload: "map", Conns: 1, Pipeline: 1, Addrs: []string{"a", "b"}} // two addresses: failover
	cfg.fill()
	st, err := newLoadState(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := &scriptedNotPrimaryConn{rejections: 3}
	r := rng.NewXoshiro256(1)

	var req Request
	var resBuf [1]Result
	if ok := st.single(st.hist.Recorder(0), conn, r, time.Now(), &req, resBuf[:]); !ok {
		t.Fatal("single() abandoned the slot on a not-primary rejection")
	}
	if st.notPrimary != 3 {
		t.Errorf("notPrimary retries = %d, want 3", st.notPrimary)
	}
	if st.cut != 0 {
		t.Errorf("cut = %d; a typed not-primary rejection must never be cut to pending", st.cut)
	}
	if st.firstErr != nil {
		t.Errorf("run recorded error %v", st.firstErr)
	}
	events := st.hist.Events()
	if len(events) != 1 {
		t.Fatalf("recorded %d events, want 1", len(events))
	}
}
