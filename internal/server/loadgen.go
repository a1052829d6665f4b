package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/check"
	"rtle/internal/obs"
	"rtle/internal/rng"
	"rtle/internal/snap"
)

// LoadConfig drives RunLoad against a live rtled server. Conns × Pipeline
// sequential logical clients ("slots") are multiplexed over Conns
// connections: each slot issues one request at a time, so a connection
// carries Pipeline outstanding requests and the whole run Conns×Pipeline —
// the recording discipline check.ThreadRecorder requires (one pending
// operation per recorder) while the wire still sees deep pipelines.
type LoadConfig struct {
	// Addr is the rtled server address.
	Addr string
	// Addrs, when it lists more than one address, switches the run to
	// failover clients: each connection rides through server death by
	// reconnecting across the list (primary first, then replicas), an
	// operation whose response was lost is recorded as pending
	// (check.ThreadRecorder.Cut) instead of aborting the run, and
	// StatusNotPrimary rejections are retried until a promotion lands.
	// When empty, Addr is used alone.
	Addrs []string
	// Workload must match the server's ("set", "map", "bank").
	Workload string
	// Conns is the TCP connection count (default 4).
	Conns int
	// Pipeline is the slot count per connection (default 8).
	Pipeline int
	// Ops bounds the recorded single operations across all slots
	// (default 4000).
	Ops int
	// Duration, when positive, additionally stops the run at a deadline.
	Duration time.Duration
	// RatePerSec, when positive, switches from a closed loop (every slot
	// re-issues immediately) to an open loop: arrivals are scheduled at
	// the aggregate rate and latency is measured from the scheduled
	// arrival, so queueing delay under overload is visible instead of
	// being absorbed by coordinated omission.
	RatePerSec int
	// ReadPct is the read percentage of single operations (default 90).
	ReadPct int
	// BatchPct is the percentage of issue slots that send a read-only
	// atomicity-witness batch instead of a recorded single operation.
	BatchPct int
	// BatchSize is the witness batch length for set/map (default 8; bank
	// witnesses always read every account).
	BatchSize int
	// Keys is the key space for set/map and the account count for bank;
	// it must match the server's serving contract (default 1024, bank 16).
	Keys int
	// KeyDist selects the key distribution: "uniform" (default) or
	// "zipf" (skewed; key 0 hottest), deterministic under Seed.
	KeyDist string
	// ZipfS is the zipf exponent (default 1.1; larger is more skewed).
	ZipfS float64
	// Seed derives every slot's PRNG stream.
	Seed uint64
	// Check runs the wire-level linearizability check after the run.
	Check bool
}

func (c *LoadConfig) fill() {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 8
	}
	if c.Ops <= 0 {
		c.Ops = 4000
	}
	if c.ReadPct < 0 || c.ReadPct > 100 {
		c.ReadPct = 90
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.BatchSize > MaxBatchOps {
		c.BatchSize = MaxBatchOps
	}
	if c.Keys <= 0 {
		if c.Workload == "bank" {
			c.Keys = 16
		} else {
			c.Keys = 1024
		}
	}
	if c.KeyDist == "" {
		c.KeyDist = "uniform"
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Addrs) == 0 && c.Addr != "" {
		c.Addrs = []string{c.Addr}
	}
}

// LoadResult is one RunLoad outcome.
type LoadResult struct {
	// Ops counts recorded single operations that completed OK.
	Ops uint64
	// Batches counts witness batches that completed OK.
	Batches uint64
	// Rejected counts operations abandoned on StatusShutdown/StatusBad.
	Rejected uint64
	// Elapsed is the issuing phase's wall time.
	Elapsed time.Duration
	// Shards is the shard count the server advertised in its hello.
	Shards int
	// Latency aggregates single-operation latency (closed loop: send to
	// response; open loop: scheduled arrival to response).
	Latency obs.LatencySnapshot
	// WitnessViolations lists batch-atomicity violations (a batch whose
	// duplicate reads disagreed, or a bank batch breaking conservation).
	WitnessViolations []string
	// Cut counts operations whose response was lost to a connection
	// failure and were recorded as pending instead of completed
	// (failover mode only). The checker must explain each one both ways:
	// executed-then-crashed and never-executed.
	Cut uint64
	// NotPrimaryRetries counts StatusNotPrimary rejections absorbed
	// while waiting for a promotion (failover mode only).
	NotPrimaryRetries uint64
	// Reconnects counts connection re-establishments summed across all
	// failover clients.
	Reconnects uint64
	// FailoverWindow is the longest observed service disruption: from
	// the first lost response or not-primary rejection to the next
	// StatusOK completion.
	FailoverWindow time.Duration
	// Checked reports whether the linearizability check ran; Linearizable
	// is its verdict and CheckDetail names the failing partition.
	Checked      bool
	Linearizable bool
	CheckDetail  string
	// SeedSeq is the replication-log stamp of the pre-run server snapshot
	// a checked run's models start from (warm checking).
	SeedSeq uint64
}

// Throughput returns completed single operations per second.
func (r *LoadResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Percentile returns the q-quantile (0 < q <= 1) of the latency
// distribution in seconds, linearly interpolated within its log2 histogram
// bucket. The buckets are wide (each spans a 2× range), so resolving a
// quantile to the raw bucket bound — as this method once did — quantizes
// every distribution whose quantile lands in the same bucket to one
// byte-identical value; interpolating by the quantile's rank within the
// bucket recovers sub-bucket resolution under the usual assumption that
// samples spread uniformly inside a bucket.
func (r *LoadResult) Percentile(q float64) float64 {
	if r.Latency.Count == 0 {
		return 0
	}
	target := q * float64(r.Latency.Count)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b := 0; b < obs.NumLatencyBuckets; b++ {
		n := r.Latency.Counts[b]
		if n == 0 {
			continue
		}
		if float64(cum+n) >= target {
			lo := obs.BucketLowerBoundSeconds(b)
			hi := obs.BucketUpperBoundSeconds(b)
			frac := (target - float64(cum)) / float64(n)
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return obs.BucketUpperBoundSeconds(obs.NumLatencyBuckets - 1)
}

// loadConn is the connection surface the load generator drives — both
// *Client (one address) and *FailoverClient (an address list) satisfy it.
type loadConn interface {
	DoInto(req *Request, res []Result) (Response, error)
	ServerShards() int
	Close() error
}

// loadState is the shared mutable state of one run.
type loadState struct {
	cfg       LoadConfig
	failover  bool         // more than one address: ride through server death
	zipf      *rng.Zipf    // non-nil when KeyDist is "zipf"
	gen       check.OpGen  // draws every recorded single operation
	remaining atomic.Int64 // the run's op budget
	deadline  time.Time
	hist      *check.History
	latency   obs.Histogram
	outage    atomic.Bool // a disruption window is open (cheap gate for noteHealthy)

	mu          sync.Mutex
	rejected    uint64
	batches     uint64
	cut         uint64
	notPrimary  uint64
	outageStart time.Time     // zero when healthy
	maxOutage   time.Duration // the longest closed disruption window
	violations  []string
	firstErr    error
}

// count bumps one of the run's counters, which the slots share.
func (st *loadState) count(n *uint64) {
	st.mu.Lock()
	*n++
	st.mu.Unlock()
}

// noteDisrupt opens the disruption window (if not already open): the
// service stopped answering — a lost response or a not-primary rejection.
func (st *loadState) noteDisrupt() {
	st.mu.Lock()
	if st.outageStart.IsZero() {
		st.outageStart = time.Now()
	}
	st.mu.Unlock()
	st.outage.Store(true)
}

// noteHealthy closes the disruption window — on the first StatusOK after a
// disruption, and at the end of the run — folding its span into the maximum.
func (st *loadState) noteHealthy() {
	if !st.outage.Load() {
		return
	}
	st.outage.Store(false)
	st.mu.Lock()
	if !st.outageStart.IsZero() {
		if d := time.Since(st.outageStart); d > st.maxOutage {
			st.maxOutage = d
		}
		st.outageStart = time.Time{}
	}
	st.mu.Unlock()
}

// newLoadState builds the state of a run of slots slots over a filled cfg:
// the key distribution and the operation generator, which refuse what no
// slot could issue (an unknown workload or distribution, a one-account bank).
func newLoadState(cfg LoadConfig, slots int) (*loadState, error) {
	st := &loadState{cfg: cfg, failover: len(cfg.Addrs) > 1, hist: check.NewHistory(slots)}
	switch cfg.KeyDist {
	case "uniform":
	case "zipf":
		st.zipf = rng.NewZipf(cfg.Keys, cfg.ZipfS)
	default:
		return nil, fmt.Errorf("server: unknown key distribution %q (want uniform or zipf)", cfg.KeyDist)
	}
	var err error
	st.gen, err = check.NewOpGen(cfg.Workload, uint64(cfg.Keys), cfg.ReadPct, st.key)
	return st, err
}

// RunLoad drives the configured load against a live server, then (with
// cfg.Check) validates the recorded wire-level history: set/map histories
// are partitioned by key — single-key operations make linearizability
// compositional per key, which keeps the WGL search tractable at high slot
// counts — and bank histories are checked whole against the conservation
// model. Witness batches are read-only, so they never perturb the recorded
// history; their duplicate reads are checked for internal agreement
// instead, which is exactly the atomicity the batch contract promises.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg.fill()
	slots := cfg.Conns * cfg.Pipeline
	st, err := newLoadState(cfg, slots)
	if err != nil {
		return nil, err
	}

	clients := make([]loadConn, cfg.Conns)
	for i := range clients {
		var c loadConn
		var err error
		if st.failover {
			c, err = NewFailoverClient(FailoverConfig{Addrs: cfg.Addrs})
		} else {
			addr := cfg.Addr
			if len(cfg.Addrs) == 1 {
				addr = cfg.Addrs[0]
			}
			c, err = DialContext(context.Background(), addr)
		}
		if err != nil {
			for _, prev := range clients[:i] {
				_ = prev.Close() // unwinding a failed dial; the dial error is the one to report
			}
			return nil, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close() // the run is over; close errors carry no signal
		}
	}()

	// Warm checking: fetch a pre-run snapshot and seed the checker's models
	// from it, extending soundness from "fresh server" to "server at the
	// snapshot-stamped prefix" — the cut is consistent at its sequence, and
	// every recorded operation runs after the fetch returned, so the seeded
	// model is exactly the state the history starts from.
	var seed *snap.Snapshot
	if cfg.Check {
		var ferr error
		for _, a := range cfg.Addrs {
			if seed, ferr = FetchSnapshot(context.Background(), a); ferr == nil {
				break
			}
		}
		if ferr != nil {
			return nil, fmt.Errorf("server: warm-check snapshot fetch: %w", ferr)
		}
		if seed.Workload != cfg.Workload || seed.Keys != uint64(cfg.Keys) {
			return nil, fmt.Errorf("server: warm-check snapshot carries %s/%d keys, the run is %s/%d",
				seed.Workload, seed.Keys, cfg.Workload, cfg.Keys)
		}
	}

	st.remaining.Store(int64(cfg.Ops))
	if cfg.Duration > 0 {
		st.deadline = time.Now().Add(cfg.Duration)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st.slot(s, clients[s%cfg.Conns], start)
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st.noteHealthy() // a run that ended mid-disruption still owes its window to the max

	res := &LoadResult{
		Ops:               0,
		Batches:           st.batches,
		Rejected:          st.rejected,
		Elapsed:           elapsed,
		Shards:            clients[0].ServerShards(),
		Latency:           st.latency.Snapshot(),
		WitnessViolations: st.violations,
		Cut:               st.cut,
		NotPrimaryRetries: st.notPrimary,
		FailoverWindow:    st.maxOutage,
	}
	for _, c := range clients {
		if fc, ok := c.(*FailoverClient); ok {
			res.Reconnects += fc.Reconnects()
		}
	}
	if st.firstErr != nil {
		return res, st.firstErr
	}
	events := st.hist.Events()
	res.Ops = uint64(len(events)) - st.cut
	if cfg.Check {
		res.Checked, res.SeedSeq = true, seed.Seq
		res.Linearizable, res.CheckDetail = checkEvents(cfg.Workload, cfg.Keys, res.Shards, events, seed)
	}
	return res, nil
}

// slot runs one sequential logical client.
func (st *loadState) slot(s int, c loadConn, start time.Time) {
	cfg := &st.cfg
	rec := st.hist.Recorder(s)
	r := rng.NewXoshiro256(cfg.Seed + uint64(s)*0x9e3779b97f4a7c15 + 1)
	slots := cfg.Conns * cfg.Pipeline

	// Per-slot round-trip scratch: one request header and one result slot,
	// reused for every single operation, so the slot's steady state rides
	// the client's zero-alloc path end to end.
	var req Request
	var resBuf [1]Result

	// Open loop: this slot owns every slots'th arrival of the aggregate
	// schedule.
	var period time.Duration
	next := start
	if cfg.RatePerSec > 0 {
		period = time.Duration(int64(time.Second) * int64(slots) / int64(cfg.RatePerSec))
		next = start.Add(time.Duration(s) * period / time.Duration(slots))
	}

	for {
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			return
		}
		if st.remaining.Add(-1) < 0 {
			return
		}
		issueAt := time.Now()
		if period > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			issueAt = next
			next = next.Add(period)
		}
		if cfg.BatchPct > 0 && r.Intn(100) < cfg.BatchPct {
			st.witnessBatch(c, r)
			continue
		}
		if !st.single(rec, c, r, issueAt, &req, resBuf[:]) {
			return
		}
	}
}

// outcome is how issue ended a request.
type outcome int

const (
	answered outcome = iota // a StatusOK response
	lost                    // failover run: the transport died under the request — the one ambiguous end, it may or may not have executed
	refused                 // a draining server turned it away (StatusShutdown), before execution
	failed                  // any other rejection, or a transport error with no failover to absorb it; the run's first error is recorded
)

// issue sends req until it ends for good and classifies the end — the
// generator's whole response policy, for recorded operations and witness
// batches alike. What the server rejected before execution is re-issued
// here, below the recording layer, which is sound for exactly that reason:
// a not-primary rejection, once the promotion lands. The failover client
// classifies it as a typed ErrNotPrimary — not string-matched, so it survives
// message rewording — and a plain client never re-issues it: with one
// address there is no successor to wait for, and the status fails the run.
func (st *loadState) issue(c loadConn, req *Request, res []Result) (Response, outcome) {
	for {
		resp, err := c.DoInto(req, res)
		switch {
		case err == nil && resp.Status == StatusOK:
			st.noteHealthy()
			return resp, answered
		case errors.Is(err, ErrNotPrimary):
			st.count(&st.notPrimary)
			st.noteDisrupt()
			time.Sleep(2 * time.Millisecond)
		case err != nil && st.failover:
			st.noteDisrupt()
			return resp, lost
		case err != nil:
			st.fail(err)
			return resp, failed
		default:
			st.count(&st.rejected)
			if resp.Status != StatusShutdown {
				st.fail(fmt.Errorf("server rejected %s(%d,%d,%d): %s",
					opName(opIndex(req.Op)), req.Arg1, req.Arg2, req.Arg3, resp.Message))
				return resp, failed
			}
			if st.failover {
				// The primary is draining; ride through to its successor.
				st.noteDisrupt()
				time.Sleep(time.Millisecond)
			}
			return resp, refused
		}
	}
}

// single issues one recorded operation. Invoke stamps before the first send
// and Return after the final response, so issue's retries only widen the
// pending interval. It reports whether the slot goes on.
func (st *loadState) single(rec *check.ThreadRecorder, c loadConn, r *rng.Xoshiro256, issueAt time.Time, req *Request, res []Result) bool {
	op, a1, a2, a3 := st.gen.Draw(r)
	rec.Invoke(op, a1, a2, a3)
	*req = Request{Op: op, Arg1: a1, Arg2: a2, Arg3: a3}
	resp, out := st.issue(c, req, res)
	switch out {
	case answered:
		rec.Return(resp.Results[0].Ret, resp.Results[0].Ok)
		st.latency.Observe(time.Since(issueAt).Nanoseconds())
		return true
	case lost:
		// The response is lost and the op may have executed: the event is
		// cut to pending rather than abandoned, and the checker must
		// explain it both ways.
		rec.Cut()
		st.count(&st.cut)
		return true
	case refused:
		rec.Abandon() // rejected before execution: sound to discard
		return st.failover
	default:
		// Rejected before execution, which is sound to discard — or a
		// transport error, after which the op may have executed and keeping
		// it would be unsound: the recorded error voids the check.
		rec.Abandon()
		return false
	}
}

// witnessBatch issues one read-only batch and validates the atomicity
// witness: duplicate reads inside one batch must agree (set/map), and a
// bank batch reading every account must observe conserved total money.
// Half the set/map witnesses interleave reads of two distinct keys — on a
// sharded server those keys usually hash to different shards, so the
// witness exercises the cross-shard slow path and checks that its gated
// per-shard blocks are jointly atomic.
func (st *loadState) witnessBatch(c loadConn, r *rng.Xoshiro256) {
	cfg := &st.cfg
	var entries []BatchEntry
	switch cfg.Workload {
	case "set", "map":
		op := check.OpContains
		if cfg.Workload == "map" {
			op = check.OpGet
		}
		keyA := st.key(r)
		keyB := keyA
		if cfg.Keys > 1 && r.Intn(2) == 0 {
			keyB = (keyA + 1 + r.Uint64n(uint64(cfg.Keys)-1)) % uint64(cfg.Keys)
		}
		entries = make([]BatchEntry, cfg.BatchSize)
		for i := range entries {
			key := keyA
			if i%2 == 1 {
				key = keyB
			}
			entries[i] = BatchEntry{Op: op, Arg1: key}
		}
	case "bank":
		n := cfg.Keys
		if n > MaxBatchOps {
			// A partial-coverage batch cannot witness conservation.
			return
		}
		entries = make([]BatchEntry, n)
		for i := range entries {
			entries[i] = BatchEntry{Op: check.OpBalance, Arg1: uint64(i)}
		}
	}
	// Witnesses are read-only and unrecorded: re-issuing one is free and a
	// lost or refused one costs nothing, so only an answer is judged.
	if resp, out := st.issue(c, &Request{Op: OpBatch, Batch: entries}, nil); out == answered {
		st.count(&st.batches)
		st.judgeWitness(entries, resp.Results)
	}
}

// judgeWitness validates one witness batch's results.
func (st *loadState) judgeWitness(entries []BatchEntry, results []Result) {
	if len(results) != len(entries) {
		st.violate(fmt.Sprintf("batch answered %d results for %d entries", len(results), len(entries)))
		return
	}
	switch st.cfg.Workload {
	case "set", "map":
		// Duplicate reads of the same key inside one batch must agree;
		// a two-key witness checks agreement per key.
		first := make(map[uint64]int, 2)
		for i := range results {
			j, seen := first[entries[i].Arg1]
			if !seen {
				first[entries[i].Arg1] = i
				continue
			}
			if results[i] != results[j] {
				st.violate(fmt.Sprintf(
					"batch atomicity: duplicate read %d of key %d saw (%d,%v), read %d saw (%d,%v)",
					i, entries[i].Arg1, results[i].Ret, results[i].Ok, j, results[j].Ret, results[j].Ok))
				return
			}
		}
	case "bank":
		var sum uint64
		for _, res := range results {
			sum += res.Ret
		}
		want := uint64(len(entries)) * BankInitial
		if sum != want {
			st.violate(fmt.Sprintf("bank conservation: batch of %d balances summed to %d, want %d",
				len(entries), sum, want))
		}
	}
}

// key draws one key from the configured distribution: uniform, or the
// precomputed zipf table (key 0 hottest). Both draw exactly one variate
// from r, so switching distributions keeps runs seed-deterministic.
func (st *loadState) key(r *rng.Xoshiro256) uint64 {
	if st.zipf != nil {
		return st.zipf.Sample(r)
	}
	return r.Uint64n(uint64(st.cfg.Keys))
}

func (st *loadState) fail(err error) {
	st.mu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.mu.Unlock()
}

func (st *loadState) violate(msg string) {
	st.mu.Lock()
	st.violations = append(st.violations, msg)
	st.mu.Unlock()
}

// checkEvents validates a recorded wire history. Set and map operations
// each touch exactly one key, so the history is linearizable iff every
// per-key subhistory is — the standard locality property — and partitioned
// checking stays tractable where a whole-history WGL search over dozens of
// concurrent slots would not. The same locality is what makes the check
// compose across shards: every key lives on exactly one shard, so a
// per-key verdict is a per-shard verdict, and a failure is attributed to
// the shard that served the key. Bank transfers couple account pairs
// (possibly on different shards), so that history is checked whole — the
// strongest statement, covering the cross-shard slow path too.
//
// Every model starts from seed's state — the warm-checking contract (see
// RunLoad).
func checkEvents(workload string, keys, shards int, events []Event, seed *snap.Snapshot) (bool, string) {
	switch workload {
	case "bank":
		balances := make([]uint64, keys)
		for i := range balances {
			balances[i] = BankInitial
		}
		for _, items := range seed.Shards {
			for _, it := range items {
				balances[it.Key] = it.Val
			}
		}
		if !check.CheckLinearizable(check.BankModelFrom(balances), events) {
			return false, fmt.Sprintf(
				"bank history of %d events over %d shards is not linearizable", len(events), shards)
		}
		return true, ""
	case "set", "map":
		var model check.Model
		if workload == "map" {
			m := make(map[uint64]uint64)
			for _, items := range seed.Shards {
				for _, it := range items {
					m[it.Key] = it.Val
				}
			}
			model = check.MapModelFrom(m)
		} else {
			m := make(map[uint64]bool)
			for _, items := range seed.Shards {
				for _, it := range items {
					m[it.Key] = true
				}
			}
			model = check.SetModelFrom(m)
		}
		byKey := make(map[uint64][]Event)
		for _, e := range events {
			byKey[e.Arg1] = append(byKey[e.Arg1], e)
		}
		ks := make([]uint64, 0, len(byKey))
		for k := range byKey {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		for _, k := range ks {
			if !check.CheckLinearizable(model, byKey[k]) {
				return false, fmt.Sprintf(
					"key %d (shard %d) subhistory (%d events) is not linearizable",
					k, ShardForKey(k, shards), len(byKey[k]))
			}
		}
		return true, ""
	}
	return false, fmt.Sprintf("unknown workload %q", workload)
}

// Event re-exports check.Event for checkEvents' signature.
type Event = check.Event
