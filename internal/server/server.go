package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/harness"
	"rtle/internal/mem"
	"rtle/internal/repl"
	"rtle/internal/snap"
)

// Config assembles a Server. Zero fields select the documented defaults.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Workload is the served ADT: "set", "map", or "bank" (default "set").
	Workload string
	// Method is the synchronization method's legend name, as accepted by
	// harness.BuildMethod (default "FG-TLE(256)").
	Method string
	// Shards is the number of independent ADT partitions, each with its
	// own simulated heap, method instance, and pool of sections.
	// Single-key operations route to their key's shard by consistent hash;
	// multi-key operations spanning shards take a slower quiescing path,
	// run by the admitting reader under those shards' exclusive gates
	// (default 1: the unsharded server).
	Shards int
	// Workers bounds each shard's concurrent elided critical sections: the
	// shard keeps a pool of that many sections, each on its own
	// core.Thread, and a connection's reader borrows one to execute the run
	// it admitted. A reader that finds the pool empty waits, which
	// backpressures its own connection through TCP (default 4).
	Workers int
	// Coalesce is the maximum number of single operations one atomic block
	// serves, and so the longest run a reader admits before executing it:
	// consecutive operations of one pipelined burst that route to the same
	// shard (default 8; 1 means uncoalesced execution).
	Coalesce int
	// Keys bounds the key space for set/map and is the account count for
	// bank (default 1024, bank 16).
	Keys int
	// Policy carries the speculation knobs (attempts, lazy subscription,
	// HTM config) and the observer of the methods' execution events (rtled
	// installs the obs.Registry its /metrics renders next to the wire
	// series). Plan is wired into it by New.
	Policy core.Policy
	// Plan, when non-nil and active, wires a fault.Director into the
	// method: chaos runs work over the wire exactly as in-process ones.
	Plan *fault.Plan

	// Any of the replication fields below enables the replication
	// subsystem: committed mutating blocks are appended to an ordered log
	// and streamed to subscribers (see internal/repl and the protocol doc).

	// ReplicaOf, when set, starts this server as a replica of the primary
	// at that address: it rejects writes with StatusNotPrimary, follows
	// the primary's log, and can be promoted (Promote).
	ReplicaOf string
	// ReplAck selects when a primary answers a mutating request: "async"
	// (default; after local commit) or "sync" (after every live stream
	// subscriber acknowledged the commit's log entries — zero acknowledged
	// writes are lost when a subscriber takes over).
	ReplAck string
	// ReplLog, when set, mirrors the log to this append-only file and
	// replays it on boot.
	ReplLog string

	// SnapFile, when set, names the durable snapshot file: restored (if
	// present) before log replay on boot, and rewritten by Compact. A
	// compacted log cannot boot without the snapshot holding its discarded
	// prefix.
	SnapFile string
	// CompactEvery, when > 0, auto-compacts the replication log each time
	// it accumulates this many entries above its floor: the state is
	// snapshotted to SnapFile and the covered log prefix truncated.
	// Requires SnapFile; enables replication.
	CompactEvery int
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workload == "" {
		c.Workload = "set"
	}
	if c.Method == "" {
		c.Method = "FG-TLE(256)"
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Coalesce <= 0 {
		c.Coalesce = 8
	}
	if c.Keys <= 0 {
		if c.Workload == "bank" {
			c.Keys = 16
		} else {
			c.Keys = 1024
		}
	}
	if c.Workload == "bank" && c.Shards > c.Keys {
		c.Shards = c.Keys // at least one account per shard
	}
}

// topology is one generation of the serving plane: the key router and the
// shard set it routes over. Admission reads the live generation through
// Server.topo under drainMu; Reshard builds a new generation offline,
// migrates the state into it through a snapshot, and swaps the pointer
// while admission is quiesced and every accepted task is released — so a
// task always executes on the generation that admitted it.
type topology struct {
	router *router
	shards []*shard
}

// shardMetrics collects the per-shard metric blocks in shard order.
func (tp *topology) shardMetrics() []*ShardMetrics {
	sms := make([]*ShardMetrics, len(tp.shards))
	for i, sh := range tp.shards {
		sms[i] = sh.m
	}
	return sms
}

// Server is the TCP serving layer: an acceptor, and one goroutine per
// connection that reads, executes and answers its requests — on pooled
// per-shard sections over independently elided data-structure partitions,
// or, for a cross-shard operation, under the exclusive gates of the shards
// it spans.
type Server struct {
	cfg      Config
	director *fault.Director
	metrics  Metrics

	// policy is the resolved speculation configuration (observer and fault
	// director wired in), kept so Reshard can rebuild method instances.
	policy core.Policy

	// topo is the live serving topology. Swapped only under drainMu held
	// exclusively (Reshard, replica bootstrap); loaded under drainMu shared
	// on the admission path, and freely for read-only accessors.
	topo atomic.Pointer[topology]

	// repl is the replication subsystem state; nil unless a replication
	// field of Config is set.
	repl *replication

	// drainMu serializes request admission against the drain flip: readers
	// admit under RLock, Shutdown flips draining under Lock, so after the
	// flip no reader can be mid-admission and tasksWG covers every
	// accepted task. Topology swaps hold it exclusively for the same
	// reason: after the flip, no admission can target a retired generation.
	drainMu  sync.RWMutex
	draining bool

	tasksWG sync.WaitGroup // accepted tasks not yet answered on the wire
	connsWG sync.WaitGroup // one per connection, released by its teardown

	// Auto-compactor lifecycle (nil/unused unless CompactEvery > 0).
	compactStop chan struct{}
	compactDone chan struct{}
	compactOnce sync.Once

	mu    sync.Mutex
	lis   net.Listener
	conns map[*conn]struct{}
}

// top returns the live topology generation.
func (s *Server) top() *topology { return s.topo.Load() }

// task is one accepted request of a connection's run, held by value in
// the run's slice (affRun).
type task struct {
	req     Request
	arrived time.Time
	// sh is the owning shard for fast-path tasks (nil for a cross-shard
	// task).
	sh *shard
	// spans is the ascending involved-shard set for cross-shard tasks.
	spans []int
}

// New builds a Server: per-shard simulated heaps, ADT partitions,
// synchronization methods and section pools, plus the key router and fault
// director. When Config.SnapFile names an existing snapshot it is
// restored first, and log replay (Config.ReplLog) continues from the
// snapshot's sequence instead of from scratch.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.CompactEvery > 0 && cfg.SnapFile == "" {
		return nil, errors.New("server: CompactEvery needs SnapFile; the truncated log prefix must survive somewhere")
	}
	s := &Server{
		cfg:   cfg,
		conns: make(map[*conn]struct{}),
	}
	s.policy = cfg.Policy
	if cfg.Plan != nil && cfg.Plan.Active() {
		s.director = fault.NewDirector(*cfg.Plan)
		s.director.Configure(&s.policy)
	}

	tp, err := s.buildTopology(cfg.Shards)
	if err != nil {
		return nil, err
	}
	s.topo.Store(tp)
	s.metrics.attach(tp.shardMetrics())

	// Durable snapshot first: it seeds the shard state the log suffix
	// replays on top of.
	var bootSeq uint64
	var haveSnap bool
	if cfg.SnapFile != "" {
		sn, err := snap.ReadFile(cfg.SnapFile)
		if err != nil {
			return nil, err
		}
		if sn != nil {
			if err := s.restoreTopology(tp, sn); err != nil {
				return nil, err
			}
			bootSeq, haveSnap = sn.Seq, true
		}
	}

	if cfg.ReplicaOf != "" || cfg.ReplAck != "" || cfg.ReplLog != "" || cfg.CompactEvery > 0 {
		var syncAck bool
		switch cfg.ReplAck {
		case "", "async":
		case "sync":
			syncAck = true
		default:
			return nil, fmt.Errorf("server: unknown replication ack mode %q (want async or sync)", cfg.ReplAck)
		}
		log, err := repl.Open(cfg.ReplLog)
		if err != nil {
			return nil, err
		}
		if floor := log.Floor(); floor > 0 {
			// The log's prefix below the floor was compacted away; only a
			// snapshot at or above the floor holds the missing state.
			if !haveSnap {
				_ = log.Close() // the missing-snapshot error is the one to report
				return nil, fmt.Errorf("server: replication log was compacted below seq %d and no snapshot is available; boot needs the snapshot the compaction left behind", floor)
			}
			if floor > bootSeq {
				_ = log.Close() // the floor-gap error is the one to report
				return nil, fmt.Errorf("server: replication log floor %d is above the snapshot sequence %d; the entries between them are unrecoverable", floor, bootSeq)
			}
		}
		if haveSnap && log.HighWater() < bootSeq {
			// The snapshot is ahead of the whole log (for example a
			// bootstrap file next to a fresh log): the snapshot subsumes
			// every missing entry, so restart the log at its sequence.
			if err := log.ResetTo(bootSeq); err != nil {
				_ = log.Close() // the reset error is the one to report
				return nil, err
			}
		}
		s.repl = newReplication(log, syncAck, cfg.ReplicaOf)
		s.metrics.repl = s.repl
		// Warm boot: replay the log suffix above the snapshot (the whole
		// log on a snapshot-less boot), before any worker or connection
		// exists.
		if err := s.replayLog(bootSeq); err != nil {
			_ = log.Close() // the replay error is the one to report
			return nil, err
		}
	}
	return s, nil
}

// buildTopology assembles one serving generation with n shards: per-shard
// simulated heaps, ADT partitions, method instances, section pools, and
// metric blocks. It starts no goroutine, and its structures are pristine,
// which restoreTopology relies on.
func (s *Server) buildTopology(n int) (*topology, error) {
	cfg := &s.cfg
	if cfg.Workload == "bank" && n > cfg.Keys {
		n = cfg.Keys // at least one account per shard
	}
	tp := &topology{router: newRouter(cfg.Workload, n, cfg.Keys)}
	slots := cfg.Coalesce
	if MaxBatchOps > slots {
		slots = MaxBatchOps
	}
	_, orecs, err := harness.MethodOrecs(cfg.Method)
	if err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		m := mem.New(heapWords(cfg.Workload, cfg.Keys, cfg.Workers, orecs))
		var owned []uint64
		if cfg.Workload == "bank" {
			owned = tp.router.ownedAccounts(k)
		}
		a, err := newADT(cfg.Workload, m, cfg.Keys, owned)
		if err != nil {
			return nil, err
		}
		method, err := harness.BuildMethod(cfg.Method, m, s.policy)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			id:     k,
			mem:    m,
			adt:    a,
			method: method,
			secs:   make(chan *section, cfg.Workers),
			m:      &ShardMetrics{},
		}
		for i := 0; i < cfg.Workers; i++ {
			sh.secs <- newSection(sh, slots)
		}
		sh.slowThread = method.NewThread()
		sh.slowEx = a.newExecutor(slots)
		tp.shards = append(tp.shards, sh)
	}
	return tp, nil
}

// Metrics returns the server's wire-level metric registry.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Director returns the fault director wired by Config.Plan, or nil.
func (s *Server) Director() *fault.Director { return s.director }

// MethodName returns the served method's legend name.
func (s *Server) MethodName() string { return s.top().shards[0].method.Name() }

// Workload returns the served ADT kind.
func (s *Server) Workload() string { return s.cfg.Workload }

// Keys returns the served key-space bound (account count for bank).
func (s *Server) Keys() int { return s.cfg.Keys }

// Shards returns the number of served partitions (live: Reshard changes
// it).
func (s *Server) Shards() int { return len(s.top().shards) }

// Listen binds the configured address and starts a replica's follower and
// the auto-compactor when configured. It returns the bound address
// (Config.Addr may name port 0).
func (s *Server) Listen() (net.Addr, error) {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	if r := s.repl; r != nil && r.role.Load() == roleReplica {
		r.started.Store(true)
		go s.runReplica()
	}
	if s.cfg.CompactEvery > 0 {
		s.compactStop = make(chan struct{})
		s.compactDone = make(chan struct{})
		go s.runCompactor()
	}
	return lis.Addr(), nil
}

// Serve accepts connections until the listener closes (Shutdown or Close).
// It returns nil on a drain-initiated close.
func (s *Server) Serve() error {
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		nc, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.serveConn(nc)
	}
}

// serveConn registers one accepted connection and starts its read loop, the
// only goroutine it costs.
func (s *Server) serveConn(nc net.Conn) {
	c := newConn(nc, &s.metrics, s.cfg.Coalesce)
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.metrics.connsOpen.Add(1)
	s.metrics.connsTotal.Add(1)
	s.connsWG.Add(1)
	go s.readLoop(c)
}

// endConn is a connection's teardown, run by its read loop on the way out,
// when every request it accepted is answered and no streamer writes any
// more: it writes what is still staged (a hello or subscribe rejection),
// closes the socket and forgets the connection. Once per connection: cold.
func (s *Server) endConn(c *conn) {
	c.write()
	_ = c.nc.Close() // double-close after a hard Close or a failed write is harmless
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.connsOpen.Add(-1)
	s.connsWG.Done()
}

// readLoop negotiates the hello exchange, then decodes frames from one
// connection, validating, admitting and executing them, and answers them
// itself: a pipelined burst's operations run on this goroutine — on
// sections borrowed from their shard, or under the exclusive gates of the
// shards a cross-shard operation spans — and their responses leave in one
// write before the next read that could block.
func (s *Server) readLoop(c *conn) {
	defer s.endConn(c)
	fr := frameReader{r: bufio.NewReaderSize(c.nc, 1<<16)}
	if !s.hello(c, &fr) {
		// The teardown writes the rejection, if any, and closes the socket
		// behind it.
		return
	}
	run := &c.run
	for {
		// End the burst before any read that could block: as long as the
		// next frame is already buffered the run may keep growing, but a
		// parked reader must hold neither admitted work nor unsent answers.
		if !fr.ready() {
			s.flushRun(c)
			s.endBurst(c)
		}
		payload, err := fr.next()
		if err != nil {
			// EOF, connection reset, an expired read deadline (Shutdown), or
			// an unrecoverable framing error (oversized frame): no way to
			// resynchronize, drop the conn. The burst is always over here: a
			// buffered frame cannot fail to read, and the code above ended
			// it before the blocking case.
			return
		}
		// A rejection joins the burst's answers in request order, behind
		// the pending run's: the run executes first.
		req, err := DecodeRequest(payload)
		if err != nil {
			s.metrics.badOps.Add(1)
			s.flushRun(c)
			s.reject(c, req.ID, StatusBad, err.Error())
			continue
		}
		// An opcode the protocol does not define has no slot: validate
		// counts it as the bad request it is.
		if i := opIndex(req.Op); i >= 0 {
			s.metrics.requests[i].Add(1)
		}
		if req.Op == OpReplSubscribe {
			// The connection becomes a replication stream; when the
			// subscriber hangs up the deferred teardown runs as usual. The
			// burst ends first: a capture under drainMu must not wait on
			// tasks this reader still holds.
			s.flushRun(c)
			s.endBurst(c)
			s.serveSubscriber(c, &fr, req)
			return
		}
		if req.Op == OpSnapshot {
			// The full state streams inline as snapshot chunks; the read
			// loop resumes decoding requests once the end chunk is sent.
			s.flushRun(c)
			s.endBurst(c)
			s.serveSnapshot(c, req)
			continue
		}
		if err := s.validate(&req); err != nil {
			s.metrics.badOps.Add(1)
			s.flushRun(c)
			s.reject(c, req.ID, StatusBad, err.Error())
			continue
		}
		// A replica serves pings (drain and liveness probes) but rejects
		// everything else before execution: clients retry against the
		// primary or ride out this server's promotion.
		if r := s.repl; r != nil && !r.primary() && req.Op != OpPing {
			s.flushRun(c)
			s.reject(c, req.ID, StatusNotPrimary,
				"server is a replica of "+r.primaryAddr)
			continue
		}
		// Shard-affinity classification: consecutive fast-path ops that
		// hash to one shard gather into a run, which executes as one group.
		if len(run.tasks) > 0 {
			plan := run.tp.router.plan(&req)
			if plan.fast && plan.shard == run.sh && len(run.tasks) < s.cfg.Coalesce {
				run.add(req)
				continue
			}
			// Cross-shard op, slow-path op, or a full run: the run executes
			// in admission order ahead of the newcomer.
			s.flushRun(c)
		}
		tp := s.top()
		plan := tp.router.plan(&req)
		run.add(req)
		if plan.fast {
			run.tp, run.sh = tp, plan.shard
			continue
		}
		// A multi-shard op is a run of length one with no cached plan:
		// flushRun plans it under the drain lock and executes it.
		s.flushRun(c)
	}
}

// affRun is one connection's pending run: requests decoded by the read
// loop but not yet admitted, in arrival order, in a slice the connection
// owns for its whole life. Consecutive fast-path operations planned onto
// one shard of one topology generation keep growing the run, up to
// Config.Coalesce, while further frames are already buffered, and flushRun
// admits and executes it as one group; a run with no cached plan (tp nil)
// is planned task by task at the flush.
type affRun struct {
	tasks []task
	sh    int       // planned shard index
	tp    *topology // generation the plan was made against
}

// add appends one accepted request to the run. newConn sizes tasks at
// Config.Coalesce, which the read loop never lets a run pass, so the
// append never allocates.
func (run *affRun) add(req Request) {
	run.tasks = append(run.tasks, task{req: req, arrived: time.Now()})
}

// reset empties the executed run, dropping every reference its tasks
// carried (a batch's entries, a cross-shard span set) so the slice never
// pins freed request state.
func (run *affRun) reset() {
	clear(run.tasks)
	run.tasks, run.tp = run.tasks[:0], nil
}

// flushRun is the one admission function: it admits the pending run,
// applying drain rejection, executes it on this goroutine and resets it. A
// run whose cached plan is still of the live generation is admitted whole
// onto its shard. Otherwise — the run carries no plan (a multi-shard op),
// or a reshard swapped the generation since the run was planned without
// holding drainMu — every task is planned on the generation that will
// execute it, and may legally land on a different shard or span several; a
// cross-shard task is counted like a fast one, and nothing is refused for
// load. The topology load sits inside the drain lock because swaps hold it
// exclusively and wait for every task counted under it, so execution after
// the unlock still runs on the admitting generation.
//
// The lock is tried first: a drain or a swap that holds or awaits it is
// waiting for tasksWG to empty, so a reader still holding its burst's
// answers must release them (endBurst) before queueing behind it. Nothing
// is written under the lock: a write can block on a stalled peer, and
// blocking under drainMu would wedge Shutdown. Refused tasks are staged
// like any answer and leave with the burst.
func (s *Server) flushRun(c *conn) {
	run := &c.run
	ts := run.tasks
	if len(ts) == 0 {
		return
	}
	defer run.reset()
	if !s.drainMu.TryRLock() {
		s.endBurst(c)
		s.drainMu.RLock()
	}
	if s.draining {
		s.drainMu.RUnlock()
		for i := range ts {
			s.reject(c, ts[i].req.ID, StatusShutdown, "server is draining")
		}
		return
	}
	tp := s.top()
	if tp == run.tp {
		s.admitLocked(tp.shards[run.sh], ts)
		s.metrics.affineOps.Add(uint64(len(ts)))
		s.metrics.affineRuns.Add(1)
	} else {
		for i := range ts {
			if plan := tp.router.plan(&ts[i].req); plan.fast {
				s.admitLocked(tp.shards[plan.shard], ts[i:i+1])
			} else {
				s.tasksWG.Add(1)
				ts[i].spans = plan.spans
			}
		}
	}
	s.drainMu.RUnlock()
	s.execute(c, tp, ts)
}

// admitLocked counts the fast-path tasks ts into the server's in-flight
// set and sh's backlog gauge before anything executes them: count before
// execute, so neither a drain nor a scrape can miss an admitted task. The
// caller holds drainMu shared with draining false.
func (s *Server) admitLocked(sh *shard, ts []task) {
	s.tasksWG.Add(len(ts))
	sh.m.queueDepth.Add(int64(len(ts)))
	for i := range ts {
		ts[i].sh = sh
	}
}

// endBurst ends the reader's burst: on a sync-ack primary it waits once
// for the highest barrier among the burst's blocks, fast and cross-shard
// alike, writes the staged answers and rejections in one write, and only
// then releases the answered tasks' accounting — so a drain that finds
// tasksWG empty finds every accepted request answered on the wire. If the
// wait is abandoned because the server is closing, the answers are dropped
// unsent and the connection is closed (see replWait).
func (s *Server) endBurst(c *conn) {
	if c.frames == 0 {
		return
	}
	bar, n := c.bar, c.answered
	c.bar, c.answered = 0, 0
	if s.replWait(bar) {
		c.write()
	} else {
		c.out, c.frames = c.out[:0], 0
		_ = c.nc.Close() // the client sees its connection die and records the ops pending
	}
	s.tasksWG.Add(-n)
}

// hello runs the server side of the rtled/1 version negotiation: the first
// frame on every connection must be a client hello with a supported
// version. On success the server answers with its own hello (version and
// shard count) and the connection proceeds to requests; on
// failure the client gets one explanatory StatusBad response and the
// connection closes. Runs once per connection: cold by construction.
func (s *Server) hello(c *conn, fr *frameReader) bool {
	payload, err := fr.next()
	if err != nil {
		return false
	}
	ch, err := DecodeClientHello(payload)
	if err != nil {
		s.metrics.helloRejects.Add(1)
		s.reject(c, 0, StatusBad, err.Error())
		return false
	}
	if ch.Version != ProtocolVersion {
		s.metrics.helloRejects.Add(1)
		s.reject(c, 0, StatusBad, fmt.Sprintf(
			"unsupported protocol version %d (server speaks rtled/%d)", ch.Version, ProtocolVersion))
		return false
	}
	c.out = AppendServerHello(c.out, &ServerHello{
		Version: ProtocolVersion,
		Shards:  uint16(len(s.top().shards)),
	})
	c.frames++
	c.write()
	return true
}

// validate applies the serving contract to a decoded request.
func (s *Server) validate(req *Request) error {
	switch req.Op {
	case OpPing:
		return nil
	case OpBatch:
		if len(req.Batch) == 0 {
			return errors.New("empty batch")
		}
		adt := s.top().shards[0].adt // the contract (key bounds, served ops) is shard-independent
		for i := range req.Batch {
			e := &req.Batch[i]
			if err := adt.validate(e.Op, e.Arg1, e.Arg2); err != nil {
				return fmt.Errorf("batch entry %d: %w", i, err)
			}
		}
		return nil
	default:
		return s.top().shards[0].adt.validate(req.Op, req.Arg1, req.Arg2)
	}
}

// reject stages the answer to a request that will not execute; it leaves
// with the rest of the burst, or at the teardown. Rejection is the error
// branch of admission: cold, allocation is priced in.
func (s *Server) reject(c *conn, id uint32, st Status, msg string) {
	s.metrics.statuses[st].Add(1)
	c.out = AppendResponse(c.out, &Response{ID: id, Status: st, Message: msg})
	c.frames++
}

// encode stages an executed task's response on c and counts it. results
// may alias a section's scratch slice; it is encoded before returning, so
// the steady-state response path allocates nothing: the connection's
// buffer is reused after every write.
func (s *Server) encode(c *conn, t *task, results []Result, resp Response) {
	resp.Results = results
	c.out = AppendResponse(c.out, &resp)
	c.frames++
	c.answered++
	s.metrics.statuses[resp.Status].Add(1)
	s.metrics.latency[opIndex(t.req.Op)].Observe(time.Since(t.arrived).Nanoseconds())
}

// Shutdown drains gracefully: stop admitting, stop accepting, let every
// accepted request on every shard finish and be written, then tear the
// connections down. It returns ctx's error if the drain does not complete
// in time (the server is then closed hard).
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.stopCompactor()

	if s.repl != nil {
		s.repl.shutdownRunner()
	}

	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		_ = lis.Close() // net.ErrClosed on re-close is the expected teardown path
	}

	drained := make(chan struct{})
	go func() {
		s.tasksWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		if s.repl != nil {
			s.repl.markClosing()
		}
		s.closeConns(true)
		return ctx.Err()
	}

	// All accepted tasks are answered on the wire and no reader can admit
	// more (the draining flip happened under drainMu). Unblock readers
	// parked on their sockets; each connection's teardown closes its own.
	s.closeConns(false)
	done := make(chan struct{})
	go func() {
		s.connsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.repl != nil {
			return s.repl.log.Close()
		}
		return nil
	case <-ctx.Done():
		s.closeConns(true)
		return ctx.Err()
	}
}

// Close tears the server down without draining.
func (s *Server) Close() error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.stopCompactor()
	if s.repl != nil {
		s.repl.shutdownRunner()
		// Before any connection dies: a sync-ack waiter released by the
		// subscriber teardown below must drop its held response, not race
		// it onto a client socket the loop has not reached yet.
		s.repl.markClosing()
	}
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		_ = lis.Close() // net.ErrClosed on re-close is the expected teardown path
	}
	s.closeConns(true)
	if s.repl != nil {
		return s.repl.log.Close()
	}
	return nil
}

// stopCompactor retires the auto-compactor, if Listen started one.
// Idempotent: Shutdown and Close may both run.
func (s *Server) stopCompactor() {
	if s.compactStop == nil {
		return
	}
	s.compactOnce.Do(func() { close(s.compactStop) })
	<-s.compactDone
}

// closeConns unblocks every live connection's reader. hard closes the
// sockets outright, failing any write in progress; otherwise only the
// reads expire, and each connection's teardown closes its socket.
func (s *Server) closeConns(hard bool) {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		if hard {
			_ = c.nc.Close() // readers and writers observe the close and exit
		} else {
			_ = c.nc.SetReadDeadline(time.Now()) // fails only on a closed socket
		}
	}
}
