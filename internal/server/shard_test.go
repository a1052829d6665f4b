package server

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rtle/internal/check"
	"rtle/internal/fault"
)

// TestShardedLinearizable is the tentpole claim for set/map sharding:
// pipelined load against a four-shard server — including two-key witness
// batches that cross shards — records a linearizable history, and the
// cross-shard slow path actually ran.
func TestShardedLinearizable(t *testing.T) {
	for _, workload := range []string{"set", "map"} {
		t.Run(workload, func(t *testing.T) {
			srv, addr := startServer(t, Config{
				Workload: workload,
				Method:   "FG-TLE(256)",
				Shards:   4,
				Workers:  2,
				Keys:     128,
			})
			res, err := RunLoad(LoadConfig{
				Addr: addr, Workload: workload, Conns: 4, Pipeline: 8,
				Ops: 3000, ReadPct: 80, BatchPct: 15, Keys: 128, Check: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Shards != 4 {
				t.Errorf("client saw %d shards, want 4", res.Shards)
			}
			if len(res.WitnessViolations) > 0 {
				t.Fatalf("witness violations: %v", res.WitnessViolations)
			}
			if !res.Linearizable {
				t.Fatalf("sharded history not linearizable: %s", res.CheckDetail)
			}
			if srv.Metrics().CrossShard() == 0 {
				t.Error("no cross-shard operations ran; two-key witnesses never spanned shards")
			}
			var active int
			for _, sm := range srv.Metrics().Shards() {
				if sm.sections.Load() > 0 {
					active++
				}
			}
			if active < 2 {
				t.Errorf("only %d shard(s) executed sections; routing is not spreading", active)
			}
		})
	}
}

// TestCrossShardBank is the hardest correctness claim of the sharded
// design: bank transfers between accounts on different shards go through
// the two-block withdraw/deposit slow path under exclusive drain gates,
// and the whole-history linearizability check (plus full-coverage
// conservation witnesses) must still pass — under an active fault plan, so
// speculation on every shard is being aborted while gates are cycling. The
// load takes well under a second; if it has not finished after
// gateDeadlockBound, readers are parked on each other's gates, and
// withinGateBound fails the test with every goroutine's stack.
func TestCrossShardBank(t *testing.T) {
	plan := fault.Plan{
		Seed:       11,
		BeginProb:  0.05,
		AccessProb: 0.01,
		StormEvery: 400,
		StormLen:   3,
	}
	srv, addr := startServer(t, Config{
		Workload: "bank",
		Method:   "RHNOrec",
		Shards:   4,
		Workers:  2,
		Keys:     16,
		Plan:     &plan,
	})
	var res *LoadResult
	var err error
	withinGateBound(t, "bank load", func() {
		res, err = RunLoad(LoadConfig{
			Addr: addr, Workload: "bank", Conns: 2, Pipeline: 4,
			Ops: 800, ReadPct: 50, BatchPct: 20, Keys: 16, Check: true,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WitnessViolations) > 0 {
		t.Fatalf("conservation violated: %v", res.WitnessViolations)
	}
	if !res.Linearizable {
		t.Fatalf("cross-shard bank history not linearizable: %s", res.CheckDetail)
	}
	m := srv.Metrics()
	if m.CrossShard() == 0 {
		t.Fatal("no transfer crossed shards; the test is vacuous")
	}
	var slow uint64
	for _, sm := range m.Shards() {
		slow += sm.slowBlocks.Load()
	}
	if slow == 0 {
		t.Error("cross-shard ops ran but no slow blocks were recorded")
	}
	if srv.Director() == nil || srv.Director().TotalInjected() == 0 {
		t.Error("fault plan injected nothing; the chaos run was vacuous")
	}
}

// gateDeadlockBound is how long a test's cross-shard load may run before
// the test calls it a deadlock.
const gateDeadlockBound = 60 * time.Second

// withinGateBound runs load and, if it has not returned after
// gateDeadlockBound, fails the test with every goroutine's stack instead of
// hanging the package until go test's -timeout. load runs on its own
// goroutine, so it reports failures through its captures, not through t.
func withinGateBound(t *testing.T, what string, load func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		load()
	}()
	select {
	case <-done:
	case <-time.After(gateDeadlockBound):
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s still running after %v: likely a gate-order deadlock (look for readers parked in gate.Lock or gate.RLock)\n%s",
			what, gateDeadlockBound, buf)
	}
}

// TestCrossShardTransferBatch pins the regression where a batch entry's
// transfer destination was ignored by routing: a batch holding a
// cross-shard transfer was planned onto the source shard alone, so the
// destination shard was never gated and the deposit indexed a Bank that
// does not own the account. The batch must instead execute atomically in
// entry order — balance entries after the transfer observe the moved
// funds — and the whole bank must conserve money under concurrent
// cross-shard transfer batches.
func TestCrossShardTransferBatch(t *testing.T) {
	const keys = 16
	srv, addr := startServer(t, Config{Workload: "bank", Shards: 4, Workers: 2, Keys: keys})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cross, _ := crossShardPair(t, srv.top().router, keys)
	from, to := cross[0], cross[1]

	const amount = 7
	resp, err := c.Batch([]BatchEntry{
		{Op: check.OpTransfer, Arg1: from, Arg2: to, Arg3: amount},
		{Op: check.OpBalance, Arg1: from},
		{Op: check.OpBalance, Arg1: to},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("cross-shard transfer batch rejected: %s", resp.Message)
	}
	res := resp.Results
	if res[0].Ret != amount {
		t.Errorf("transfer moved %d, want %d", res[0].Ret, amount)
	}
	if res[1].Ret != BankInitial-amount {
		t.Errorf("source %d balance after in-batch transfer = %d, want %d",
			from, res[1].Ret, BankInitial-amount)
	}
	if res[2].Ret != BankInitial+amount {
		t.Errorf("destination %d balance after in-batch transfer = %d, want %d",
			to, res[2].Ret, BankInitial+amount)
	}

	// Concurrent cross-shard transfer batches in both directions: the
	// gates hold for each whole batch, so money must be conserved.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc, err := DialContext(context.Background(), addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cc.Close()
			a, b := from, to
			if g%2 == 1 {
				a, b = to, from
			}
			for i := 0; i < 50; i++ {
				resp, err := cc.Batch([]BatchEntry{
					{Op: check.OpTransfer, Arg1: a, Arg2: b, Arg3: uint64(1 + i%5)},
					{Op: check.OpBalance, Arg1: a},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Status != StatusOK {
					t.Errorf("batch rejected: %s", resp.Message)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Full-coverage balance scan: conservation end-to-end.
	entries := make([]BatchEntry, keys)
	for i := range entries {
		entries[i] = BatchEntry{Op: check.OpBalance, Arg1: uint64(i)}
	}
	resp, err = c.Batch(entries)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("balance scan rejected: %s", resp.Message)
	}
	var sum uint64
	for _, r := range resp.Results {
		sum += r.Ret
	}
	if want := uint64(keys) * BankInitial; sum != want {
		t.Errorf("bank total %d after cross-shard transfer batches, want %d", sum, want)
	}
	if srv.Metrics().CrossShard() == 0 {
		t.Error("no cross-shard operations recorded; the test is vacuous")
	}
}

// TestCrossShardBurstOrder: a pipelined burst that mixes fast-path reads
// with cross-shard transfers and rejected requests is answered strictly in
// request order — a cross-shard answer or a rejection is staged with the
// rest of its burst, never sent ahead of it — and every read observes
// exactly the transfers before it.
func TestCrossShardBurstOrder(t *testing.T) {
	const keys, rounds = 16, 40
	srv, addr := startServer(t, Config{Workload: "bank", Shards: 2, Workers: 2, Keys: keys})
	cross, _ := crossShardPair(t, srv.top().router, keys)
	from, to := cross[0], cross[1]

	_, br, nc := rawHelloExchange(t, addr, AppendClientHello(nil, &ClientHello{Version: ProtocolVersion}))
	var burst []byte
	for r := 0; r < rounds; r++ {
		for j, req := range []Request{
			{Op: check.OpBalance, Arg1: from},
			{Op: check.OpTransfer, Arg1: from, Arg2: to, Arg3: 1},
			{Op: check.OpBalance, Arg1: to},
			{Op: check.OpBalance, Arg1: keys}, // out of range: rejected
		} {
			req.ID = uint32(4*r + j + 1)
			burst = AppendRequest(burst, &req)
		}
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: br}
	for id := uint32(1); id <= 4*rounds; id++ {
		payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		wantStatus := StatusOK
		if id%4 == 0 {
			wantStatus = StatusBad
		}
		if resp.ID != id || resp.Status != wantStatus {
			t.Fatalf("answer %d is %+v: out of request order", id, resp)
		}
		r := uint64(id-1) / 4
		var want uint64
		switch (id - 1) % 4 {
		case 0:
			want = BankInitial - r // the source, before this round's transfer
		case 1:
			want = 1 // the amount moved
		case 2:
			want = BankInitial + r + 1 // the destination, after it
		case 3:
			continue
		}
		if got := resp.Results[0].Ret; got != want {
			t.Errorf("answer %d returned %d, want %d", id, got, want)
		}
	}
	if got := srv.Metrics().CrossShard(); got != rounds {
		t.Errorf("%d cross-shard ops, want the %d transfers", got, rounds)
	}

	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries := make([]BatchEntry, keys)
	for i := range entries {
		entries[i] = BatchEntry{Op: check.OpBalance, Arg1: uint64(i)}
	}
	resp, err := c.Batch(entries)
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("balance scan: %v / %+v", err, resp)
	}
	var sum uint64
	for _, r := range resp.Results {
		sum += r.Ret
	}
	if want := uint64(keys) * BankInitial; sum != want {
		t.Errorf("bank total %d after the burst, want %d", sum, want)
	}
}

// TestWorkerDrain holds the reader's execution to its contract, through
// the real read loop over a net.Pipe: a pipelined burst runs in groups of
// at most Config.Coalesce single operations, a ping or batch ends the
// group before it and runs on its own, and every answer leaves in the
// burst's write. The whole burst is written at once, so the grouping is
// deterministic. Shutdown is called while that write is blocked on the
// unread pipe, and must not return before every accepted request's answer
// has been written.
func TestWorkerDrain(t *testing.T) {
	get := Request{Op: check.OpGet, Arg1: 1}
	gets := []Request{get, get, get, get, get, get, get, get}
	cases := []struct {
		name                string
		coalesce            int
		reqs                []Request
		sections, coalesced uint64
	}{
		{"cap8", 8, gets, 1, 8},
		{"cap4", 4, gets, 2, 8},
		{"cap1", 1, gets, 8, 0},
		{"mixed", 8, []Request{
			get, get, {Op: OpPing}, get,
			{Op: OpBatch, Batch: []BatchEntry{{Op: check.OpPut, Arg1: 2, Arg2: 7}, {Op: check.OpGet, Arg1: 2}}},
			get,
		}, 4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{Workload: "map", Workers: 1, Coalesce: tc.coalesce, Keys: 8})
			if err != nil {
				t.Fatal(err)
			}
			m := srv.Metrics()
			// The gauges must never read negative, whoever looks.
			stopWatch := watchGauges(t, m)
			defer stopWatch()

			peer, _ := servePipe(t, srv)
			// Read the answers unbuffered: a buffered reader takes the whole
			// burst's write in its first read, after which Shutdown may
			// rightly return with answers still in the reader's buffer.
			fr := &frameReader{r: peer}
			var burst []byte
			for i, req := range tc.reqs {
				req.ID = uint32(i + 1)
				burst = AppendRequest(burst, &req)
			}
			if _, err := peer.Write(burst); err != nil {
				t.Fatal(err)
			}
			// Every block has run once the sections are counted; the answers
			// then wait in the burst's write, which nobody reads yet.
			waitFor(t, 10*time.Second, "the burst's sections", func() bool { return m.Sections() == tc.sections })

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shut := make(chan error, 1)
			go func() { shut <- srv.Shutdown(ctx) }()
			for i := range tc.reqs {
				select {
				case err := <-shut:
					t.Fatalf("Shutdown returned (%v) with %d of %d answers unwritten", err, len(tc.reqs)-i, len(tc.reqs))
				default:
				}
				payload, err := fr.next()
				if err != nil {
					t.Fatal(err)
				}
				if resp, err := DecodeResponse(payload); err != nil || resp.Status != StatusOK {
					t.Errorf("queued request answered %+v (%v), want ok", resp, err)
				}
			}
			if err := <-shut; err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if got := m.Sections(); got != tc.sections {
				t.Errorf("%d sections, want %d", got, tc.sections)
			}
			if got := m.Coalesced(); got != tc.coalesced {
				t.Errorf("%d coalesced operations, want %d", got, tc.coalesced)
			}
			sm := m.Shards()[0]
			if q, in := sm.queueDepth.Load(), sm.inflight.Load(); q != 0 || in != 0 {
				t.Errorf("queue depth %d, inflight %d after every answer, want 0", q, in)
			}
		})
	}
}

// TestRunGaugesWhileItWaitsForASection pins the shard gauges of an admitted
// run: while every section of its shard is out, a burst of n gets is n
// requests deep in the shard's backlog and none is in flight; once the
// sections are back and the answers are in, both read 0. It then pins what
// a run owes after execution: every task of the connection's run slice is
// zero again, so no batch entries or span set outlive their request.
func TestRunGaugesWhileItWaitsForASection(t *testing.T) {
	const n = 8
	srv, err := New(Config{Workload: "map", Shards: 2, Workers: 2, Coalesce: n, Keys: 64})
	if err != nil {
		t.Fatal(err)
	}
	tp := srv.top()
	const key = 1
	k := tp.router.shardOf(key)
	other := uint64(2)
	for tp.router.shardOf(other) == k {
		other++
	}
	sh := tp.shards[k]
	var held []*section
	for range srv.cfg.Workers {
		held = append(held, <-sh.secs)
	}
	gauges := func() string {
		var sb strings.Builder
		if err := srv.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	depth := func(d int) string { return fmt.Sprintf("rtled_shard_queue_depth{shard=\"%d\"} %d\n", k, d) }

	peer, fr := servePipe(t, srv)
	var burst []byte
	for id := uint32(1); id <= n; id++ {
		burst = AppendRequest(burst, &Request{ID: id, Op: check.OpGet, Arg1: key})
	}
	if _, err := peer.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the burst to be admitted", func() bool { return srv.Metrics().QueueDepth() == n })
	for _, want := range []string{depth(n), "rtled_inflight 0\n"} {
		if out := gauges(); !strings.Contains(out, want) {
			t.Errorf("with every section out, the metrics lack %q", want)
		}
	}

	for _, sec := range held {
		sh.secs <- sec
	}
	for id := uint32(1); id <= n; id++ {
		payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := DecodeResponse(payload); err != nil || resp.ID != id || resp.Status != StatusOK {
			t.Fatalf("answered %+v (%v), want ok for id %d", resp, err, id)
		}
	}
	for _, want := range []string{depth(0), "rtled_inflight 0\n"} {
		if out := gauges(); !strings.Contains(out, want) {
			t.Errorf("after every answer, the metrics lack %q", want)
		}
	}

	// A batch on one shard, then one across both: a run of each.
	burst = AppendRequest(burst[:0], &Request{ID: n + 1, Op: OpBatch, Batch: []BatchEntry{{Op: check.OpPut, Arg1: key, Arg2: 7}}})
	burst = AppendRequest(burst, &Request{ID: n + 2, Op: OpBatch, Batch: []BatchEntry{{Op: check.OpGet, Arg1: key}, {Op: check.OpGet, Arg1: other}}})
	if _, err := peer.Write(burst); err != nil {
		t.Fatal(err)
	}
	for id := uint32(n + 1); id <= n+2; id++ {
		payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := DecodeResponse(payload); err != nil || resp.ID != id || resp.Status != StatusOK {
			t.Fatalf("batch answered %+v (%v), want ok for id %d", resp, err, id)
		}
	}
	srv.mu.Lock()
	for c := range srv.conns {
		tasks := c.run.tasks[:cap(c.run.tasks)]
		for i := range tasks {
			if !reflect.DeepEqual(tasks[i], task{}) {
				t.Errorf("task %d of the run slice after its answer: %+v, want the zero task", i, tasks[i])
			}
		}
	}
	srv.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestMultiShardDrain proves the drain contract survives sharding: with
// load in flight across four shards, Shutdown
// answers every accepted request on every shard before returning, and
// afterwards no queue holds residue.
func TestMultiShardDrain(t *testing.T) {
	srv, err := New(Config{Workload: "map", Shards: 4, Workers: 2, Keys: 256})
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
				resp, err := c.Op(check.OpPut, uint64(i*50+j)%256, uint64(j), 0)
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

	var total int
	for _, n := range okCount {
		total += n
	}
	m := srv.Metrics()
	if m.Responses(StatusOK) < uint64(total) {
		t.Errorf("server answered %d OK, clients saw %d", m.Responses(StatusOK), total)
	}
	if d := m.QueueDepth(); d != 0 {
		t.Errorf("queues hold %d tasks after a clean drain", d)
	}
	for k, sm := range m.Shards() {
		if inf := sm.inflight.Load(); inf != 0 {
			t.Errorf("shard %d reports %d inflight after drain", k, inf)
		}
	}
}

// TestShardedMetricsRendered checks the per-shard Prometheus families: the
// merged unlabelled series and the {shard="k"} series must both render.
func TestShardedMetricsRendered(t *testing.T) {
	srv, addr := startServer(t, Config{Workload: "map", Shards: 2, Keys: 64})
	res, err := RunLoad(LoadConfig{
		Addr: addr, Workload: "map", Conns: 2, Pipeline: 4,
		Ops: 400, Keys: 64, Check: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	var sb strings.Builder
	if err := srv.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"rtled_shards 2",
		`rtled_sections_total{shard="0"}`,
		`rtled_sections_total{shard="1"}`,
		`rtled_shard_queue_depth{shard="0"}`,
		"rtled_hello_rejects_total 0",
		"rtled_cross_shard_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
