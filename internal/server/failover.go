package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// FailoverConfig assembles a FailoverClient. Zero fields select the
// documented defaults.
type FailoverConfig struct {
	// Addrs is the ordered server address list: the first reachable one
	// wins, both at construction and on every reconnect cycle. For a
	// replicated pair, list the primary first.
	Addrs []string
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// RetryWindow bounds how long one request waits for a usable
	// connection before giving up (default 15s) — the failover budget.
	RetryWindow time.Duration
	// MaxBackoff caps the delay between reconnect attempts (default
	// 500ms; attempts start at 10ms and double).
	MaxBackoff time.Duration
}

func (c *FailoverConfig) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryWindow <= 0 {
		c.RetryWindow = 15 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
}

// ErrNotPrimary reports a request the addressed server refused because it
// is a following replica (StatusNotPrimary on the wire). The refusal
// happens before execution, so re-issuing — typically after a promotion —
// is always safe. Match with errors.Is: the wrapped message carries the
// server's wording, which is not part of the contract.
var ErrNotPrimary = errors.New("server: not primary")

// FailoverClient wraps Client with an address list and
// reconnect-with-backoff: when the live connection dies, the next request
// waits while one background dialer cycles the addresses until a server
// answers its hello. It deliberately does NOT retry a request that died
// in flight — whether the server executed it is unknowable, and only the
// caller can decide what that means for its history (see
// check.ThreadRecorder.Cut). Requests that never reached a connection are
// safe to re-issue and flow again automatically.
type FailoverClient struct {
	cfg FailoverConfig

	mu      sync.Mutex
	cond    *sync.Cond // signaled when cur changes, on close, and at window expiry
	cur     *Client
	gen     uint64 // increments per established connection; guards invalidate
	dialing bool
	closed  bool
	cancel  context.CancelFunc // cancels the in-flight redial's dial context

	reconnects atomic.Uint64
	shards     int // the first server's advertised shard count
}

// NewFailoverClient connects to the first reachable address. All
// addresses failing is a construction error — a misconfigured address
// list should fail fast, not burn the retry window on the first request.
func NewFailoverClient(cfg FailoverConfig) (*FailoverClient, error) {
	cfg.fill()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("server: failover client needs at least one address")
	}
	fc := &FailoverClient{cfg: cfg}
	fc.cond = sync.NewCond(&fc.mu)
	var errs []error
	for _, addr := range cfg.Addrs {
		c, err := fc.dial(context.Background(), addr)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", addr, err))
			continue
		}
		fc.cur = c
		fc.gen = 1
		fc.shards = c.ServerShards()
		return fc, nil
	}
	return nil, fmt.Errorf("server: no address reachable: %w", errors.Join(errs...))
}

// ServerShards returns the shard count advertised by the first connected
// server (a replicated pair serves identical topology).
func (fc *FailoverClient) ServerShards() int { return fc.shards }

// Reconnects returns how many times the client re-established its
// connection after the initial dial.
func (fc *FailoverClient) Reconnects() uint64 { return fc.reconnects.Load() }

// dial connects to addr within the configured DialTimeout.
func (fc *FailoverClient) dial(ctx context.Context, addr string) (*Client, error) {
	ctx, cancel := context.WithTimeout(ctx, fc.cfg.DialTimeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// conn returns the live client, waiting up to the retry window for a
// reconnect when the connection is down. The returned generation pairs
// the client for invalidate.
func (fc *FailoverClient) conn() (*Client, uint64, error) {
	timer := time.AfterFunc(fc.cfg.RetryWindow, func() {
		fc.mu.Lock()
		fc.cond.Broadcast()
		fc.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(fc.cfg.RetryWindow)

	fc.mu.Lock()
	defer fc.mu.Unlock()
	for {
		if fc.closed {
			return nil, 0, ErrClosed
		}
		if fc.cur != nil {
			return fc.cur, fc.gen, nil
		}
		if !fc.dialing {
			fc.dialing = true
			ctx, cancel := context.WithCancel(context.Background())
			fc.cancel = cancel
			go fc.redial(ctx)
		}
		if !time.Now().Before(deadline) {
			return nil, 0, fmt.Errorf("%w: no server reachable within %v", ErrConnClosed, fc.cfg.RetryWindow)
		}
		fc.cond.Wait()
	}
}

// redial cycles the address list with exponential backoff until a dial
// succeeds or the context cancels (CloseContext / Close). One redial runs
// at a time; concurrent callers park in conn.
func (fc *FailoverClient) redial(ctx context.Context) {
	backoff := 10 * time.Millisecond
	for i := 0; ctx.Err() == nil; i++ {
		addr := fc.cfg.Addrs[i%len(fc.cfg.Addrs)]
		c, err := fc.dial(ctx, addr)
		if err == nil {
			fc.mu.Lock()
			if fc.closed {
				fc.mu.Unlock()
				_ = c.Close() // lost the race with Close; nothing to report
				return
			}
			fc.cur = c
			fc.gen++
			fc.dialing = false
			fc.cancel = nil
			fc.reconnects.Add(1)
			fc.cond.Broadcast()
			fc.mu.Unlock()
			return
		}
		if i%len(fc.cfg.Addrs) == len(fc.cfg.Addrs)-1 {
			// A full cycle failed; back off before the next round.
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > fc.cfg.MaxBackoff {
				backoff = fc.cfg.MaxBackoff
			}
		}
	}
	fc.mu.Lock()
	fc.dialing = false
	fc.cancel = nil
	fc.cond.Broadcast() // waiters re-evaluate (closed, or restart the dialer)
	fc.mu.Unlock()
}

// invalidate drops the connection of generation gen (if still current) so
// the next request triggers a reconnect. The generation check keeps a
// slow caller from tearing down a connection established after its error.
func (fc *FailoverClient) invalidate(gen uint64) {
	fc.mu.Lock()
	if fc.gen != gen || fc.cur == nil {
		fc.mu.Unlock()
		return
	}
	c := fc.cur
	fc.cur = nil
	fc.mu.Unlock()
	_ = c.Close() // already dead; the close just reclaims the fd
}

// Do issues req on the live connection, waiting through a reconnect if
// necessary. A transport error invalidates the connection and surfaces to
// the caller unretried: the request may have executed. A StatusNotPrimary
// rejection surfaces as a typed ErrNotPrimary (alongside the response):
// the failover caller's decision — re-issue or wait for promotion — hangs
// on that classification, and a typed error survives message rewording
// where string matching would not.
func (fc *FailoverClient) Do(req *Request) (Response, error) {
	return fc.DoInto(req, nil)
}

// DoInto is Do with caller-owned result scratch, forwarded to the live
// connection's Client.DoInto (see that method's aliasing contract).
func (fc *FailoverClient) DoInto(req *Request, res []Result) (Response, error) {
	c, gen, err := fc.conn()
	if err != nil {
		return Response{}, err
	}
	resp, err := c.DoInto(req, res)
	if err != nil && (errors.Is(err, ErrConnClosed) || errors.Is(err, ErrClosed)) {
		fc.invalidate(gen)
	}
	if err == nil && resp.Status == StatusNotPrimary {
		return resp, fmt.Errorf("%w: %s", ErrNotPrimary, resp.Message)
	}
	return resp, err
}

// Op issues one single-operation request.
func (fc *FailoverClient) Op(op Op, a1, a2, a3 uint64) (Response, error) {
	return fc.Do(&Request{Op: op, Arg1: a1, Arg2: a2, Arg3: a3})
}

// Ping issues a liveness probe.
func (fc *FailoverClient) Ping() error {
	resp, err := fc.Do(&Request{Op: OpPing})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("server: ping answered %v", resp.Status)
	}
	return nil
}

// Close tears the client down; an in-flight reconnect is cancelled.
func (fc *FailoverClient) Close() error {
	c, cancel := fc.shutdown()
	if cancel != nil {
		cancel()
	}
	if c != nil {
		return c.Close()
	}
	return nil
}

// CloseContext closes gracefully: new requests are refused, an in-flight
// reconnect is cancelled, and the live connection (if any) drains its
// in-flight requests until ctx expires.
func (fc *FailoverClient) CloseContext(ctx context.Context) error {
	c, cancel := fc.shutdown()
	if cancel != nil {
		cancel()
	}
	if c != nil {
		return c.CloseContext(ctx)
	}
	return nil
}

// shutdown flips the closed flag and detaches the live connection and any
// in-flight dial cancel, waking every parked caller.
func (fc *FailoverClient) shutdown() (*Client, context.CancelFunc) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.closed = true
	c, cancel := fc.cur, fc.cancel
	fc.cur, fc.cancel = nil, nil
	fc.cond.Broadcast()
	return c, cancel
}
