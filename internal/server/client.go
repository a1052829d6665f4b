package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a pipelined rtled/1 client. Any number of goroutines may issue
// requests concurrently over the one connection; each in-flight request
// gets a fresh id and the demultiplexer routes the id-matched response
// back, so the connection carries as many outstanding requests as there
// are callers.
type Client struct {
	nc    net.Conn
	hello ServerHello // the server's negotiation answer, fixed at dial

	wmu  sync.Mutex // one frame per Write call, serialized
	wbuf []byte     // encode scratch, owned by wmu: the request frame reuses it

	mu      sync.Mutex
	cond    *sync.Cond // signaled when pending shrinks or the client dies
	nextID  uint32
	pending map[uint32]*pendingCall
	closing bool  // CloseContext called: refuse new requests, drain
	err     error // sticky transport error, set by the read loop
}

// pendingCall is one in-flight request's rendezvous: the buffered reply
// channel the caller blocks on, and the caller-owned result scratch the
// read loop decodes into (nil means the decode allocates). Calls are
// pooled — the channel is reused across requests — which is safe because
// each carries exactly one response per registration and error paths never
// return a call (a closed or possibly-occupied channel must not be
// recycled).
type pendingCall struct {
	ch  chan Response
	res []Result
}

var callPool = sync.Pool{
	New: func() any { return &pendingCall{ch: make(chan Response, 1)} },
}

func getCall(res []Result) *pendingCall {
	call := callPool.Get().(*pendingCall)
	call.res = res
	return call
}

func putCall(call *pendingCall) {
	call.res = nil
	callPool.Put(call)
}

// ErrClosed reports a request issued after the client's connection died or
// Close was called.
var ErrClosed = errors.New("server: client connection closed")

// ErrConnClosed reports a transport-level failure: the server (or the
// network) closed the connection out from under the client — EOF, reset,
// or a failed write. It is distinguishable with errors.Is from both a
// local Close (ErrClosed) and protocol errors (malformed frames), which
// is what a failover-aware caller needs: only transport death means the
// same request might succeed against another server.
var ErrConnClosed = errors.New("server: connection closed by peer")

// handshake opens one client-side rtled/1 connection: TCP connect, client
// hello, server hello back. Every client-side connection of this package
// starts here — DialContext's pipelined Client, a replica's stream
// (dialPrimary), a snapshot transfer (FetchSnapshot) — so the negotiation
// rules are written once: a server that rejects the hello has its
// explanation surfaced as the error, and one that speaks another protocol
// version is refused.
//
// ctx alone bounds the setup, and ending it severs a blocked hello read: a
// connection deadline alone would hold a caller that has given up until it
// expires. The context's deadline, if it has one, stays armed on the
// returned connection; the caller clears it when its own setup is done. The
// hello answer and everything after it flow through the returned reader,
// which keeps any bytes buffered past the hello frame.
func handshake(ctx context.Context, addr string) (_ net.Conn, _ *frameReader, sh ServerHello, err error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, sh, err
	}
	stop := context.AfterFunc(ctx, func() { _ = nc.Close() })
	defer func() {
		if !stop() {
			err = ctx.Err() // the read failed because the context's end closed the connection
		}
		if err != nil {
			_ = nc.Close() // the setup failed; the close error adds nothing
		}
	}()
	if deadline, ok := ctx.Deadline(); ok {
		_ = nc.SetDeadline(deadline) // best effort; the read below surfaces real failures
	}
	if _, err := nc.Write(AppendClientHello(nil, &ClientHello{Version: ProtocolVersion})); err != nil {
		return nil, nil, sh, fmt.Errorf("server: client hello: %w", err)
	}
	fr := &frameReader{r: bufio.NewReaderSize(nc, 1<<16)}
	payload, err := fr.next()
	if err != nil {
		return nil, nil, sh, fmt.Errorf("server: reading server hello: %w", err)
	}
	if sh, err = DecodeServerHello(payload); err != nil {
		// A rejecting server answers with a StatusBad response carrying
		// the reason; surface it instead of a bare decode error.
		if resp, derr := DecodeResponse(payload); derr == nil && resp.Message != "" {
			err = fmt.Errorf("server: hello rejected: %s", resp.Message)
		}
		return nil, nil, sh, err
	}
	if sh.Version != ProtocolVersion {
		return nil, nil, sh, fmt.Errorf("server: server speaks rtled/%d, client speaks rtled/%d", sh.Version, ProtocolVersion)
	}
	return nc, fr, sh, nil
}

// exchange issues req as the connection's sole in-flight request and waits
// for its answer, for the two dedicated-connection protocols — replication
// subscribe, snapshot transfer — whose follow-on frames carry no request id.
// Anything but an OK answer is an error carrying the server's message.
// Cancelling ctx severs a blocked read, as in handshake.
func exchange(ctx context.Context, nc net.Conn, fr *frameReader, req *Request) error {
	defer context.AfterFunc(ctx, func() { _ = nc.Close() })()
	req.ID = 1
	if _, err := nc.Write(AppendRequest(nil, req)); err != nil {
		return err
	}
	payload, err := fr.next()
	if err != nil {
		return err
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("server: %s rejected: %v %s", opName(opIndex(req.Op)), resp.Status, resp.Message)
	}
	return nil
}

// DialContext connects to an rtled server at addr and runs the rtled/1
// hello exchange synchronously: the server's hello (version, shard count)
// is available from the moment DialContext returns. A server that rejects
// the negotiation surfaces its explanation as the dial error. The context
// bounds the TCP connect and the hello exchange; it does not govern the
// connection's later life (use CloseContext for a bounded drain).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	nc, fr, sh, err := handshake(ctx, addr)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(time.Time{}) // the setup bound does not govern the connection's life
	c := &Client{nc: nc, hello: sh, pending: make(map[uint32]*pendingCall)}
	c.cond = sync.NewCond(&c.mu)
	go c.readLoop(fr)
	return c, nil
}

// ServerShards returns the shard count the server advertised at dial.
func (c *Client) ServerShards() int { return int(c.hello.Shards) }

// readLoop demultiplexes responses to their waiting callers until the
// connection dies, then fails every pending and future request.
func (c *Client) readLoop(fr *frameReader) {
	for {
		payload, err := fr.next()
		if err != nil {
			// A read error is transport death (EOF, reset, a torn frame
			// header): wrap it so callers can tell it from protocol errors.
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		if len(payload) < 5 {
			c.fail(errShort)
			return
		}
		// The id leads the payload; looking the call up first lets the
		// decode target the caller's result scratch instead of allocating.
		id := binary.BigEndian.Uint32(payload)
		c.mu.Lock()
		call := c.pending[id]
		delete(c.pending, id)
		c.cond.Broadcast() // wake a draining CloseContext
		c.mu.Unlock()
		var res []Result
		if call != nil {
			res = call.res
		}
		resp, err := DecodeResponseInto(payload, res)
		if err != nil {
			c.fail(err) // a protocol error, not transport death: no wrap
			return
		}
		if call != nil {
			call.ch <- resp
		}
	}
}

// fail marks the client dead and releases every waiting caller. Runs
// once, when the connection dies: cold.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint32]*pendingCall)
	c.cond.Broadcast() // nothing left to drain
	c.mu.Unlock()
	for _, call := range pending {
		close(call.ch) // the call never returns to the pool: a closed channel must not be reused
	}
}

// Close tears the connection down; in-flight requests fail. The sticky
// error is set before the socket closes, so a local Close reports
// ErrClosed, never ErrConnClosed — the distinction failover policy keys
// on.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return c.nc.Close()
}

// CloseContext closes gracefully: it refuses new requests immediately,
// waits for every in-flight request to receive its response, then tears
// the connection down. The context bounds the drain — on expiry the
// connection closes anyway (remaining in-flight requests fail with
// ErrClosed) and CloseContext returns the context's error.
func (c *Client) CloseContext(ctx context.Context) error {
	c.mu.Lock()
	c.closing = true
	c.mu.Unlock()
	// Cond waits cannot select on a context, so expiry pokes the waiter.
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	for len(c.pending) > 0 && c.err == nil && ctx.Err() == nil {
		c.cond.Wait()
	}
	c.mu.Unlock()
	err := c.Close()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// send registers a pooled pending call, encodes req with a fresh id into
// the client's write scratch, and writes the frame. The caller owns the
// returned call until the response arrives; error paths never return one.
func (c *Client) send(req *Request, res []Result) (*pendingCall, error) {
	call := getCall(res)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		putCall(call)
		return nil, err
	}
	if c.closing {
		c.mu.Unlock()
		putCall(call)
		return nil, ErrClosed
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = call
	c.mu.Unlock()

	c.wmu.Lock()
	c.wbuf = AppendRequest(c.wbuf[:0], req)
	_, err := c.nc.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		// The call is not recycled: the read loop may have raced a
		// response into its channel (or fail may close it) — either way
		// its channel is no longer provably empty and open.
		return nil, fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	return call, nil
}

// Do issues req and blocks for its response. The request's ID field is
// assigned by the client. Status is reported through the Response, not the
// error.
func (c *Client) Do(req *Request) (Response, error) {
	return c.DoInto(req, nil)
}

// DoInto is Do with caller-owned result scratch: an OK response's results
// are decoded into res when they fit (Response.Results then aliases res),
// so a caller that sizes res to its op's result count completes the whole
// round trip without allocating. A nil res is Do.
func (c *Client) DoInto(req *Request, res []Result) (Response, error) {
	call, err := c.send(req, res)
	if err != nil {
		return Response{}, err
	}
	resp, ok := <-call.ch
	if !ok {
		// fail closed the channel; it never returns to the pool.
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return Response{}, err
	}
	// Exactly one response per registration was delivered, so the channel
	// is empty and open again: safe to recycle.
	putCall(call)
	return resp, nil
}

// Op issues one single-operation request and blocks for its response.
func (c *Client) Op(op Op, a1, a2, a3 uint64) (Response, error) {
	return c.Do(&Request{Op: op, Arg1: a1, Arg2: a2, Arg3: a3})
}

// Batch issues one batch request and blocks for its response.
func (c *Client) Batch(entries []BatchEntry) (Response, error) {
	return c.Do(&Request{Op: OpBatch, Batch: entries})
}

// Ping issues a liveness probe and blocks for its response.
func (c *Client) Ping() error {
	resp, err := c.Do(&Request{Op: OpPing})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("server: ping answered %v", resp.Status)
	}
	return nil
}
