package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtle/internal/check"
	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/obs"
)

// startServer boots a server on a loopback port and tears it down with the
// test.
func startServer(t testing.TB, cfg Config) (*Server, string) {
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
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-done
	})
	return srv, addr.String()
}

// TestServeLinearizable is the package's core end-to-end claim: pipelined
// load over real TCP connections, recorded at the wire, is linearizable
// for every served workload.
func TestServeLinearizable(t *testing.T) {
	cases := []struct {
		workload, method string
		cfg              LoadConfig
	}{
		{"set", "FG-TLE(256)", LoadConfig{Conns: 4, Pipeline: 8, Ops: 3000, ReadPct: 90, BatchPct: 10, Keys: 128}},
		{"map", "TLE", LoadConfig{Conns: 4, Pipeline: 8, Ops: 2000, ReadPct: 50, BatchPct: 10, Keys: 64}},
		{"bank", "RHNOrec", LoadConfig{Conns: 2, Pipeline: 4, Ops: 600, ReadPct: 60, BatchPct: 20, Keys: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.workload+"/"+tc.method, func(t *testing.T) {
			srv, addr := startServer(t, Config{
				Workload: tc.workload,
				Method:   tc.method,
				Workers:  4,
				Keys:     tc.cfg.Keys,
			})
			cfg := tc.cfg
			cfg.Addr = addr
			cfg.Workload = tc.workload
			cfg.Check = true
			res, err := RunLoad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if len(res.WitnessViolations) > 0 {
				t.Fatalf("witness violations: %v", res.WitnessViolations)
			}
			if !res.Linearizable {
				t.Fatalf("history not linearizable: %s", res.CheckDetail)
			}
			if tc.cfg.BatchPct > 0 && res.Batches == 0 {
				t.Error("no witness batches ran")
			}
			if got := srv.Metrics().Sections(); got == 0 {
				t.Error("no atomic sections recorded")
			}
		})
	}
}

// TestFaultPlanOverWire runs chaos over the wire: the fault director
// mangles the method's speculation while networked clients record the
// history, and the result must still be linearizable.
func TestFaultPlanOverWire(t *testing.T) {
	plan := fault.Plan{
		Seed:       7,
		BeginProb:  0.05,
		AccessProb: 0.01,
		StormEvery: 400,
		StormLen:   3,
	}
	srv, addr := startServer(t, Config{
		Workload: "set",
		Method:   "FG-TLE(64)",
		Workers:  4,
		Keys:     64,
		Plan:     &plan,
	})
	res, err := RunLoad(LoadConfig{
		Addr: addr, Workload: "set", Conns: 4, Pipeline: 8,
		Ops: 2000, ReadPct: 50, BatchPct: 10, Keys: 64, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatalf("chaos history not linearizable: %s", res.CheckDetail)
	}
	if len(res.WitnessViolations) > 0 {
		t.Fatalf("witness violations under faults: %v", res.WitnessViolations)
	}
	if srv.Director() == nil || srv.Director().TotalInjected() == 0 {
		t.Error("fault plan injected nothing; the chaos run was vacuous")
	}
}

// TestCoalescing verifies that a backed-up queue actually shares atomic
// blocks: one worker against 32 closed-loop slots must coalesce.
func TestCoalescing(t *testing.T) {
	srv, addr := startServer(t, Config{
		Workload: "set",
		Method:   "TLE",
		Workers:  1,
		Coalesce: 8,
		Keys:     64,
	})
	res, err := RunLoad(LoadConfig{
		Addr: addr, Workload: "set", Conns: 4, Pipeline: 8,
		Ops: 2000, ReadPct: 90, Keys: 64, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatalf("coalesced history not linearizable: %s", res.CheckDetail)
	}
	m := srv.Metrics()
	if m.Coalesced() == 0 {
		t.Error("one worker under 32 pipelined slots never coalesced")
	}
	if m.Sections() >= res.Ops {
		t.Errorf("sections %d not reduced below ops %d by coalescing", m.Sections(), res.Ops)
	}
}

// flushOne admits one request the way the read loop admits a multi-shard
// op: as a run of length one with no cached plan.
func flushOne(srv *Server, c *conn, req Request) {
	c.run.add(req)
	srv.flushRun(c)
}

// pipeConn builds a conn over the server end of a net.Pipe, with no read
// loop, for tests that drive admission and execution directly; peer is the
// client end. A net.Pipe has no buffer: a server write completes only once
// the peer reads it.
func pipeConn(t testing.TB, srv *Server) (c *conn, peer net.Conn) {
	t.Helper()
	server, client := net.Pipe()
	t.Cleanup(func() {
		_ = server.Close() // teardown of a test pipe
		_ = client.Close() // teardown of a test pipe
	})
	return newConn(server, &srv.metrics, srv.cfg.Coalesce), client
}

// servePipe serves the server end of a net.Pipe through the real read loop
// (serveConn) and runs the hello exchange on the client end, which it
// returns with the reader positioned after the server's hello. The server
// end fails the test if two of its writes ever overlap: one goroutine at a
// time writes a connection.
func servePipe(t testing.TB, srv *Server) (peer net.Conn, fr *frameReader) {
	t.Helper()
	return serveWrapped(t, srv, func(nc net.Conn) net.Conn { return &oneWriterConn{Conn: nc, t: t} })
}

// serveWrapped is servePipe with the server end wrapped by wrap.
func serveWrapped(t testing.TB, srv *Server, wrap func(net.Conn) net.Conn) (peer net.Conn, fr *frameReader) {
	t.Helper()
	server, client := net.Pipe()
	t.Cleanup(func() { _ = client.Close() }) // the server end belongs to its teardown
	srv.serveConn(wrap(server))
	if _, err := client.Write(AppendClientHello(nil, &ClientHello{Version: ProtocolVersion})); err != nil {
		t.Fatal(err)
	}
	fr = &frameReader{r: bufio.NewReader(client)}
	payload, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeServerHello(payload); err != nil {
		t.Fatal(err)
	}
	return client, fr
}

// oneWriterConn fails the test when a Write starts while another one on
// the same connection is still in progress.
type oneWriterConn struct {
	net.Conn
	t       testing.TB
	writing atomic.Bool
}

func (c *oneWriterConn) Write(p []byte) (int, error) {
	if !c.writing.CompareAndSwap(false, true) {
		c.t.Error("two goroutines write one connection at once")
		return c.Conn.Write(p)
	}
	defer c.writing.Store(false)
	return c.Conn.Write(p)
}

// collect decodes every response frame the server writes to peer onto the
// returned channel, until the pipe closes.
func collect(t testing.TB, peer net.Conn) <-chan Response {
	resps := make(chan Response, 1024)
	go func() {
		defer close(resps)
		fr := frameReader{r: bufio.NewReader(peer)}
		for {
			payload, err := fr.next()
			if err != nil {
				return
			}
			resp, err := DecodeResponse(payload)
			if err != nil {
				t.Error(err)
				return
			}
			resps <- resp
		}
	}()
	return resps
}

// nextResponse returns the next response the server wrote.
func nextResponse(t *testing.T, resps <-chan Response) Response {
	t.Helper()
	select {
	case resp, ok := <-resps:
		if !ok {
			t.Fatal("connection closed before the response")
		}
		return resp
	case <-time.After(10 * time.Second):
		t.Fatal("no response written")
	}
	return Response{}
}

// watchGauges samples every shard's queue-depth and in-flight gauges from a
// goroutine of its own, failing the test if one ever reads negative, until
// the returned function is called.
func watchGauges(t *testing.T, m *Metrics) (stop func()) {
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			for k, sm := range m.Shards() {
				if q, in := sm.queueDepth.Load(), sm.inflight.Load(); q < 0 || in < 0 {
					t.Errorf("shard %d: a gauge went negative: queue depth %d, inflight %d", k, q, in)
				}
			}
			select {
			case <-done:
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	return func() {
		close(done)
		sampler.Wait()
	}
}

// TestBackpressure exercises the one admission function, flushRun,
// directly, on a cold server (Listen is never called). Nothing is refused
// for load: a draining server must refuse planned runs and unplanned
// singles alike without leaving task accounting behind, and a run that a
// reshard forces to re-plan executes whole on the reader, cross-shard
// tasks included, with its answers written outside the drain lock.
func TestBackpressure(t *testing.T) {
	// bankPair returns a bank server and two accounts that different shards
	// own once it serves two, where a transfer between them is a slow-path
	// op.
	bankPair := func(t *testing.T, shards int) (*Server, uint64, uint64) {
		srv, err := New(Config{Workload: "bank", Shards: shards, Keys: 16})
		if err != nil {
			t.Fatal(err)
		}
		for b := uint64(1); b < 16; b++ {
			if ShardForKey(b, 2) != ShardForKey(0, 2) {
				return srv, 0, b
			}
		}
		t.Fatal("every account hashes to one shard")
		return nil, 0, 0
	}

	t.Run("draining", func(t *testing.T) {
		srv, a, b := bankPair(t, 2)
		tp := srv.top()
		srv.drainMu.Lock()
		srv.draining = true
		srv.drainMu.Unlock()

		// A pending three-task run with a live cached plan, then a
		// slow-path single: the same check refuses both.
		c, peer := pipeConn(t, srv)
		resps := collect(t, peer)
		c.run.tp, c.run.sh = tp, tp.router.shardOf(a)
		for id := uint32(1); id <= 3; id++ {
			c.run.add(Request{ID: id, Op: check.OpBalance, Arg1: a})
		}
		srv.flushRun(c)
		flushOne(srv, c, Request{ID: 4, Op: check.OpTransfer, Arg1: a, Arg2: b, Arg3: 1})
		srv.endBurst(c)

		for id := uint32(1); id <= 4; id++ {
			if resp := nextResponse(t, resps); resp.ID != id || resp.Status != StatusShutdown {
				t.Errorf("draining server answered %+v, want shutdown for id %d", resp, id)
			}
		}
		if d := srv.Metrics().QueueDepth(); d != 0 {
			t.Errorf("queue depth %d after refused admissions, want 0", d)
		}
		srv.tasksWG.Wait() // nothing was accepted
	})

	t.Run("reshard", func(t *testing.T) {
		srv, a, b := bankPair(t, 1)
		// The run is planned on the one-shard generation, where even the
		// transfers are fast-path; the reshard under it makes the flush
		// re-plan every task: the three balances run on a section of their
		// shard, the two now cross-shard transfers under both shards' gates,
		// all on the reader.
		c, peer := pipeConn(t, srv)
		c.run.tp, c.run.sh = srv.top(), 0
		for id := uint32(1); id <= 3; id++ {
			c.run.add(Request{ID: id, Op: check.OpBalance, Arg1: a})
		}
		c.run.add(Request{ID: 4, Op: check.OpTransfer, Arg1: a, Arg2: b, Arg3: 1})
		c.run.add(Request{ID: 5, Op: check.OpTransfer, Arg1: a, Arg2: b, Arg3: 1})
		if err := srv.Reshard(2); err != nil {
			t.Fatal(err)
		}

		// The gauges must never read negative, whoever looks.
		m := srv.Metrics()
		stopWatch := watchGauges(t, m)

		flushed := make(chan struct{})
		go func() {
			srv.flushRun(c)
			srv.endBurst(c)
			close(flushed)
		}()
		// Nobody reads the pipe yet, so once both transfers ran the burst's
		// answers sit in its write: were they written under drainMu, the
		// lock would be held now.
		waitFor(t, 10*time.Second, "the re-planned transfers", func() bool { return m.CrossShard() == 2 })
		if !srv.drainMu.TryLock() {
			t.Fatal("the burst is written with drainMu held: a stalled peer would wedge Shutdown")
		}
		srv.drainMu.Unlock()

		resps := collect(t, peer)
		for id := uint32(1); id <= 5; id++ {
			resp := nextResponse(t, resps)
			if resp.ID != id || resp.Status != StatusOK {
				t.Errorf("re-planned run answered %+v, want ok for id %d", resp, id)
			}
			if id >= 4 && resp.Results[0].Ret != 1 {
				t.Errorf("transfer %d moved %d, want 1", id, resp.Results[0].Ret)
			}
		}
		<-flushed
		if d := m.QueueDepth(); d != 0 {
			t.Errorf("queue depth %d after the accepted tasks ran, want 0", d)
		}
		stopWatch()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
}

// TestStalledClientParksOnlyItsConnection: a client that pipelines requests
// and never reads stalls its own connection's write, and nothing else. One
// section per shard: were any shared execution resource parked on the
// stalled socket, another client of the same shards would starve — on the
// fast path, and on the cross-shard path, whose answers must not wait on
// the stalled socket either.
func TestStalledClientParksOnlyItsConnection(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// stall is client A's request, probe client B's; a transfer's
		// accounts are filled in with a pair different shards own.
		stall, probe Request
	}{
		{"set", Config{Workload: "set", Shards: 1, Workers: 1, Keys: 64},
			Request{Op: check.OpContains, Arg1: 1}, Request{Op: check.OpInsert, Arg1: 2}},
		{"bank/cross-shard", Config{Workload: "bank", Shards: 2, Workers: 1, Keys: 16},
			Request{Op: check.OpTransfer, Arg3: 1}, Request{Op: check.OpTransfer, Arg3: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, tc.cfg)
			if tc.stall.Op == check.OpTransfer {
				cross, _ := crossShardPair(t, srv.top().router, uint64(tc.cfg.Keys))
				tc.stall.Arg1, tc.stall.Arg2 = cross[0], cross[1]
				tc.probe.Arg1, tc.probe.Arg2 = cross[1], cross[0]
			}

			// Client A: the hello, then requests forever, never reading an
			// answer. A net.Pipe has no buffer, so the first write to A that
			// the server attempts blocks for good.
			a, _ := servePipe(t, srv)
			defer a.Close() // releases the stalled connection before the server's drain
			var written atomic.Int64
			go func() {
				var burst []byte
				for i := 0; ; i++ {
					burst = burst[:0]
					for j := 0; j < 64; j++ {
						req := tc.stall
						req.ID = uint32(i*64 + j)
						burst = AppendRequest(burst, &req)
					}
					if _, err := a.Write(burst); err != nil {
						return
					}
					written.Add(1)
				}
			}()
			// A is stalled once the server stops reading its requests.
			progress := func() [2]uint64 {
				return [2]uint64{uint64(written.Load()), srv.Metrics().Requests(tc.stall.Op)}
			}
			for last, deadline := progress(), time.Now().Add(20*time.Second); ; {
				time.Sleep(200 * time.Millisecond)
				now := progress()
				if now == last {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("client A never stalled")
				}
				last = now
			}

			// Client B, on the same shards, is answered promptly.
			b, err := DialContext(context.Background(), addr)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			done := make(chan error, 1)
			go func() {
				p := tc.probe
				for i := 0; i < 100; i++ {
					resp, err := b.Op(p.Op, p.Arg1, p.Arg2, p.Arg3)
					if err == nil && resp.Status != StatusOK {
						err = fmt.Errorf("op %d answered %v beside the stalled client", i, resp.Status)
					}
					if err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("a client of the same shards starved behind a client that stopped reading")
			}
		})
	}
}

// settledGoroutines waits for the goroutine count to hold still for 20 ms
// (earlier tests' teardowns finishing) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 20; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// expectGoroutines waits up to 5 s for the goroutine count to reach want.
func expectGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGoroutineBudget pins what serving costs in goroutines: a connection
// costs one, its reader, and a shard costs none — beyond the connections,
// a server runs its acceptor alone, whatever its shard and section counts.
func TestGoroutineBudget(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := settledGoroutines()
			_, addr := startServer(t, Config{Workload: "set", Shards: shards, Workers: 4, Keys: 64})
			expectGoroutines(t, base+1, "a listening server (its acceptor)")
			const conns = 5
			hello := AppendClientHello(nil, &ClientHello{Version: ProtocolVersion})
			for i := 0; i < conns; i++ {
				rawHelloExchange(t, addr, hello)
			}
			expectGoroutines(t, base+1+conns, fmt.Sprintf("%d served connections", conns))
		})
	}
}

// TestBurstYieldsToReshard: a reader holding its burst's answers —
// executed, not yet flushed, still counted in tasksWG — must release them
// before it queues behind a reshard that waits on tasksWG under the drain
// lock; otherwise each waits on the other forever.
func TestBurstYieldsToReshard(t *testing.T) {
	srv, err := New(Config{Workload: "map", Keys: 8})
	if err != nil {
		t.Fatal(err)
	}
	c, peer := pipeConn(t, srv)
	resps := collect(t, peer)
	tp := srv.top()
	c.run.tp, c.run.sh = tp, 0
	c.run.add(Request{ID: 1, Op: check.OpGet, Arg1: 1})
	srv.flushRun(c) // executed; the answer is staged and the task still counted

	resharded := make(chan error, 1)
	go func() { resharded <- srv.Reshard(2) }()
	waitFor(t, 10*time.Second, "the reshard to claim the drain lock", func() bool {
		if srv.drainMu.TryRLock() {
			srv.drainMu.RUnlock()
			return false
		}
		return true
	})

	flushed := make(chan struct{})
	go func() {
		c.run.tp, c.run.sh = tp, 0
		c.run.add(Request{ID: 2, Op: check.OpGet, Arg1: 1})
		srv.flushRun(c)
		srv.endBurst(c)
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("the reader and the reshard wait on each other")
	}
	if err := <-resharded; err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if resp := nextResponse(t, resps); resp.Status != StatusOK {
			t.Errorf("answered %+v, want ok", resp)
		}
	}
	if got := srv.Shards(); got != 2 {
		t.Errorf("%d shards after the reshard, want 2", got)
	}
}

// TestGracefulDrain checks the shutdown contract: in-flight requests are
// answered, later requests are refused, and Shutdown returns cleanly.
func TestGracefulDrain(t *testing.T) {
	srv, err := New(Config{Workload: "set", Keys: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve() }()

	c, err := DialContext(context.Background(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	okCount := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				resp, err := c.Op(check.OpInsert, uint64(i*50+j), 0, 0)
				if err != nil || resp.Status != StatusOK {
					return // the drain cut us off; that's the point
				}
				okCount[i]++
			}
		}(i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-done
	wg.Wait()

	// After the drain, the connection is gone: a new request must fail
	// rather than hang.
	if resp, err := c.Op(check.OpContains, 1, 0, 0); err == nil && resp.Status == StatusOK {
		t.Error("request succeeded after shutdown")
	}
	var total int
	for _, n := range okCount {
		total += n
	}
	if srv.Metrics().Responses(StatusOK) < uint64(total) {
		t.Errorf("server answered %d OK, clients saw %d", srv.Metrics().Responses(StatusOK), total)
	}
}

// TestBadRequestOverWire checks that contract violations answer StatusBad
// without killing the connection.
func TestBadRequestOverWire(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "set", Keys: 8})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Op(check.OpContains, 99, 0, 0) // out of range
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBad {
		t.Fatalf("out-of-range key answered %v, want bad-request", resp.Status)
	}
	resp, err = c.Op(check.OpGet, 1, 0, 0) // wrong ADT
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBad {
		t.Fatalf("map op on set workload answered %v", resp.Status)
	}
	// The connection survives rejections.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after rejections: %v", err)
	}
}

// TestMetricsRendered checks the Prometheus rendering end to end: the wire
// series must appear with the op labels after a run.
func TestMetricsRendered(t *testing.T) {
	reg := obs.NewRegistry(obs.Config{})
	srv, addr := startServer(t, Config{Workload: "set", Keys: 16, Policy: core.Policy{Observer: reg}})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.Op(check.OpInsert, uint64(i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// An opcode the protocol does not define is a bad request, not a ping.
	if resp, err := c.Op(Op(55), 1, 0, 0); err != nil || resp.Status != StatusBad {
		t.Fatalf("undefined opcode answered %+v, %v; want bad-request", resp, err)
	}

	var sb strings.Builder
	if err := srv.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`rtled_requests_total{op="insert"} 10`,
		`rtled_requests_total{op="ping"} 1`,
		"rtled_bad_requests_total 1",
		`rtled_responses_total{status="ok"}`,
		"rtled_queue_depth 0",
		"rtled_sections_total",
		`rtled_request_latency_seconds_count{op="insert"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The execution registry observed the same run.
	if snap := reg.Snapshot(); snap.Stats.Ops == 0 {
		t.Error("obs registry saw no atomic blocks")
	}
}

// TestAdminServer checks the shared HTTP lifecycle helper: bound address
// before return, live serving, graceful shutdown.
func TestAdminServer(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "rtled_up 1")
	})
	admin, err := StartAdmin("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + admin.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // test teardown; a close error would only mask the real assertion
	if !strings.Contains(string(body), "rtled_up 1") {
		t.Errorf("admin served %q", body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := admin.Shutdown(ctx); err != nil {
		t.Fatalf("admin Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + admin.Addr().String() + "/metrics"); err == nil {
		t.Error("admin still serving after Shutdown")
	}
}

// TestOpenLoop smoke-tests the rate-paced mode.
func TestOpenLoop(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "set", Keys: 64})
	res, err := RunLoad(LoadConfig{
		Addr: addr, Workload: "set", Conns: 2, Pipeline: 4,
		Ops: 400, RatePerSec: 20000, Keys: 64, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatalf("open-loop history not linearizable: %s", res.CheckDetail)
	}
	if res.Ops == 0 {
		t.Fatal("open loop completed nothing")
	}
}

// TestNewRejectsBadOrecCount: a method name arrives from a flag, so an orec
// count core would panic on must come back from New as an error.
func TestNewRejectsBadOrecCount(t *testing.T) {
	for _, method := range []string{"FG-TLE(3)", "ALE(0)", "FG-TLE(2097152)"} {
		srv, err := New(Config{Workload: "set", Method: method})
		if err == nil {
			t.Errorf("New accepted method %q", method)
			srv.Close()
		}
	}
}

// TestLargeOrecCountServes: the shard heap is sized for the method's orec
// arrays, so a legal count larger than the heap's fixed slack boots (it
// used to panic with "mem: heap exhausted") and serves.
func TestLargeOrecCountServes(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "set", Method: "FG-TLE(65536)", Keys: 64})
	res, err := RunLoad(LoadConfig{Addr: addr, Workload: "set", Conns: 2, Pipeline: 2, Ops: 200, Keys: 64, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 200 || !res.Linearizable {
		t.Fatalf("ops %d, linearizable %v: %s", res.Ops, res.Linearizable, res.CheckDetail)
	}
}

// TestRunLoadRejectsOneAccountBank: a transfer's destination is drawn among
// the other accounts, so a one-account bank is refused before any slot
// starts (it used to panic in a slot goroutine).
func TestRunLoadRejectsOneAccountBank(t *testing.T) {
	_, err := RunLoad(LoadConfig{Addr: "127.0.0.1:0", Workload: "bank", Keys: 1})
	if err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("RunLoad over a one-account bank: %v, want the generator's refusal", err)
	}
}
