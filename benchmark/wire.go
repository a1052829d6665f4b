package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/check"
	"rtle/internal/rng"
	"rtle/internal/server"
	"rtle/internal/snap"
)

const (
	wireConns = 2    // = loadThreads: one connection per generator thread
	wireKeys  = 4096 // served key space, half prefilled
	// wireCheckOps is the untimed checked slice run on the warm server
	// after the timed repetitions.
	wireCheckOps = 4000
)

// rtledArgs are the serving flags every wire workload boots with.
var rtledArgs = []string{"-workload", "map", "-shards", "2", "-workers", "2", "-coalesce", "8", "-keys", strconv.Itoa(wireKeys)}

// wireShape is what distinguishes the wire workloads.
type wireShape struct {
	getPct, putPct int  // the rest are deletes
	slots          int  // sequential logical clients per connection
	rate           int  // open loop at this many ops/s; 0 is a closed loop
	repl           bool // sync-acked primary with one replica
}

type wireInstance struct {
	sh      wireShape
	cfg     *runConfig
	primary *child
	replica *child
	clients []*server.Client
}

func wireSetup(sh wireShape) func(*runConfig, uint64) (instance, error) {
	return func(cfg *runConfig, seed uint64) (instance, error) {
		in, err := newWire(sh, cfg, seed)
		if err != nil {
			return nil, err
		}
		return in, nil
	}
}

// newWire boots the server (and replica), connects, prefills half the keys
// and warms up with a closed-loop burst of the workload's mix.
func newWire(sh wireShape, cfg *runConfig, seed uint64) (in *wireInstance, err error) {
	in = &wireInstance{sh: sh, cfg: cfg}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	args := rtledArgs
	if sh.repl {
		// The log stays in memory. With -repl-log the per-append buffered
		// write is throttled by this host's disk writeback for seconds at a
		// time (6 k to 74 k ops/s from one run to the next), and a sandbox's
		// disk is not what this workload is about: it measures log append,
		// stream and ack barrier. repl.file_append_us probes the mirror.
		args = append(append([]string{}, args...), "-repl-ack", "sync")
	}
	if in.primary, err = startChild(cfg.rtled, args...); err != nil {
		return in, err
	}
	if sh.repl {
		if in.replica, err = startChild(cfg.rtled, append(append([]string{}, rtledArgs...), "-replica-of", in.primary.addr)...); err != nil {
			return in, err
		}
		if err = in.await("a replication subscriber", func(p, _ promSet) bool { return p.get("rtled_repl_subscribers") >= 1 }); err != nil {
			return in, err
		}
	}
	for i := 0; i < wireConns; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		c, derr := server.DialContext(ctx, in.primary.addr)
		cancel()
		if derr != nil {
			return in, fmt.Errorf("dialling rtled: %w", derr)
		}
		in.clients = append(in.clients, c)
	}
	if err = in.prefill(); err != nil {
		return in, err
	}
	warm := sh
	warm.rate = 0
	if r := in.load(warm, cfg.warmup, seed, false); r.failed > 0 {
		return in, fmt.Errorf("warm-up: %d of %d operations failed", r.failed, r.attempted)
	}
	return in, nil
}

// await polls both servers' /metrics until cond holds.
func (in *wireInstance) await(what string, cond func(primary, replica promSet) bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		p, err := in.primary.scrape()
		if err != nil {
			return err
		}
		var r promSet
		if in.replica != nil {
			if r, err = in.replica.scrape(); err != nil {
				return err
			}
		}
		if cond(p, r) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// prefill puts the seeded half of the key space, split over the connections.
func (in *wireInstance) prefill() error {
	errs := make(chan error, len(in.clients))
	for i, c := range in.clients {
		go func() {
			var res [1]server.Result
			for k := uint64(i); k < wireKeys; k += uint64(len(in.clients)) {
				if !seededHalf(k) {
					continue
				}
				resp, err := c.DoInto(&server.Request{Op: check.OpPut, Arg1: k, Arg2: k + 1}, res[:])
				if err != nil {
					errs <- fmt.Errorf("prefill: %w", err)
					return
				}
				if resp.Status != server.StatusOK {
					errs <- fmt.Errorf("prefill: put answered %v", resp.Status)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for range in.clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// doer is the one client call a slot makes; *server.Client implements it.
type doer interface {
	DoInto(req *server.Request, res []server.Result) (server.Response, error)
}

// slot is one sequential logical client: it has one request in flight at a
// time and owns every buffer it writes.
type slot struct {
	c      doer
	now    func() time.Time
	r      *rng.Xoshiro256
	sh     *wireShape
	n      uint64 // operations issued
	ok     uint64
	writes uint64  // acknowledged puts and deletes
	lat    []int64 // due (open) or send (closed) to response
	tb     *traceBuf
	req    server.Request
	res    [1]server.Result
}

var wireOpNames = map[server.Op]string{check.OpGet: "get", check.OpPut: "put", check.OpDelete: "delete"}

// one issues one operation of the mix. due is when it was scheduled (the
// zero time in a closed loop, where an operation is due when it is sent).
// Every response is counted: anything but a well-formed StatusOK is a
// failure.
func (s *slot) one(due time.Time) (sent time.Time) {
	p := s.r.Intn(100)
	key := s.r.Uint64n(wireKeys)
	op, val := check.OpGet, uint64(0)
	if p >= s.sh.getPct {
		if p < s.sh.getPct+s.sh.putPct {
			op, val = check.OpPut, s.r.Next()|1
		} else {
			op = check.OpDelete
		}
	}
	s.req = server.Request{Op: op, Arg1: key, Arg2: val}
	sent = s.now()
	if due.IsZero() {
		due = sent
	}
	resp, err := s.c.DoInto(&s.req, s.res[:])
	done := s.now()
	s.n++
	if err == nil && resp.Status == server.StatusOK && len(resp.Results) == 1 {
		s.ok++
		if op != check.OpGet {
			s.writes++
		}
		s.lat = append(s.lat, int64(done.Sub(due)))
	}
	if s.tb != nil && s.n%traceEvery == 0 {
		id := s.tb.add("op", 0, wireOpNames[op], due, done)
		s.tb.add("client.do", id, wireOpNames[op], sent, done)
	}
	return sent
}

// schedule hands out the open loop's tickets: ticket k is due at
// start + k/rate, whoever sends it and however late the generator runs.
type schedule struct {
	start  time.Time
	end    time.Time
	period float64 // ns between tickets
	next   atomic.Int64
	now    func() time.Time
	sleep  func(time.Duration)
	late   []int64 // lateness of ticket k in ns, written by the slot that took it
}

func newSchedule(start time.Time, dur time.Duration, rate int) *schedule {
	return &schedule{
		start: start, end: start.Add(dur), period: 1e9 / float64(rate),
		now: time.Now, sleep: time.Sleep,
		late: make([]int64, int(dur.Seconds()*float64(rate))+1),
	}
}

// take returns the next ticket's due time after waiting for it, or false
// when the schedule has run out.
func (sc *schedule) take() (k int64, due time.Time, ok bool) {
	k = sc.next.Add(1) - 1
	due = sc.start.Add(time.Duration(float64(k) * sc.period))
	if !due.Before(sc.end) || int(k) >= len(sc.late) {
		return k, due, false
	}
	if d := due.Sub(sc.now()); d > 0 {
		sc.sleep(d)
	}
	return k, due, true
}

// sent records how late ticket k left the generator.
func (sc *schedule) sent(k int64, due, at time.Time) {
	if d := at.Sub(due); d > 0 {
		sc.late[k] = int64(d)
	}
}

// load drives the mix for dur and returns what the generator saw. It takes
// no server-side measurements; rep wraps it with those.
func (in *wireInstance) load(sh wireShape, dur time.Duration, seed uint64, traced bool) *repResult {
	nslots := len(in.clients) * sh.slots
	slots := make([]*slot, nslots)
	base := time.Now()
	for i := range slots {
		slots[i] = &slot{
			c: in.clients[i%len(in.clients)], sh: &sh, now: time.Now,
			r:   rng.NewXoshiro256(seed + uint64(i)*0x9e3779b97f4a7c15 + 1),
			lat: make([]int64, 0, 1<<14),
		}
		if traced {
			slots[i].tb = newTraceBuf(base, i, 1<<14)
		}
	}
	var stop atomic.Bool
	var sc *schedule
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			if sc == nil {
				for !stop.Load() {
					s.one(time.Time{})
				}
				return
			}
			for {
				k, due, ok := sc.take()
				if !ok {
					return
				}
				sc.sent(k, due, s.one(due))
			}
		}()
	}
	gu0, gs0 := selfCPU()
	start := time.Now()
	if sh.rate > 0 {
		sc = newSchedule(start, dur, sh.rate)
	}
	close(gate)
	if sc == nil {
		timer := time.AfterFunc(dur, func() { stop.Store(true) })
		defer timer.Stop()
	}
	wg.Wait()
	elapsed := time.Since(start)
	gu1, gs1 := selfCPU()

	r := &repResult{elapsed: elapsed, layer: map[string]float64{}}
	for _, s := range slots {
		r.attempted += s.n
		r.ops += s.ok
		r.writes += s.writes
		r.lat = append(r.lat, sortedCopy(s.lat))
		if s.tb != nil {
			r.bufs = append(r.bufs, s.tb)
		}
	}
	r.failed = r.attempted - r.ops
	pooled := r.pooledLatency()
	r.layer["server.lat_p99_us"] = float64(percentile(pooled, 0.99)) / 1e3
	r.layer["server.lat_p999_us"] = float64(percentile(pooled, 0.999)) / 1e3
	r.clientMeanUS = meanOf(pooled) / 1e3
	r.layer["loadgen.achieved_rate"] = ratio(float64(r.attempted), elapsed.Seconds())
	r.layer["loadgen.cpu_us_per_op"] = ratio(float64(((gu1 - gu0) + (gs1 - gs0)).Microseconds()), float64(r.ops))
	if sc != nil {
		issued := min(int(sc.next.Load()), len(sc.late))
		late := append([]int64(nil), sc.late[:issued]...)
		if q := issued / 4; q > 0 {
			first, last := meanOf(late[:q]), meanOf(late[issued-q:])
			r.lateGrowing = last > 1e6 && last > 4*first
		}
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		r.layer["loadgen.max_late_us"] = float64(percentile(late, 1)) / 1e3
		r.layer["loadgen.late_p99_us"] = float64(percentile(late, 0.99)) / 1e3
	}
	return r
}

// rep is one timed repetition: load wrapped in /metrics and /proc deltas.
func (in *wireInstance) rep(dur time.Duration, seed uint64, traced bool) (*repResult, error) {
	m0, err := in.primary.scrape()
	if err != nil {
		return nil, err
	}
	u0, s0, err := in.primary.cpu()
	if err != nil {
		return nil, err
	}
	var ru0, rs0 time.Duration
	if in.replica != nil {
		if ru0, rs0, err = in.replica.cpu(); err != nil {
			return nil, err
		}
	}
	r := in.load(in.sh, dur, seed, traced)
	u1, s1, err := in.primary.cpu()
	if err != nil {
		return nil, err
	}
	m1, err := in.primary.scrape()
	if err != nil {
		return nil, err
	}
	r.cpu = (u1 - u0) + (s1 - s0)

	ops := float64(r.ops)
	L := r.layer
	delta := func(name string, kv ...string) float64 { return m1.get(name, kv...) - m0.get(name, kv...) }
	deltaBy := func(name, key string) float64 { return m1.sumBy(name, key) - m0.sumBy(name, key) }
	L["server.user_cpu_us_per_op"] = ratio(float64((u1 - u0).Microseconds()), ops)
	L["server.sys_cpu_us_per_op"] = ratio(float64((s1 - s0).Microseconds()), ops)
	okResp := delta("rtled_responses_total", "status", "ok")
	L["server.ops_per_section"] = ratio(okResp, deltaBy("rtled_sections_total", "shard"))
	L["server.frames_per_writev"] = ratio(delta("rtled_write_batch_frames_sum"), delta("rtled_write_batch_frames_count"))
	L["server.affine_share"] = ratio(delta("rtled_affine_ops_total"), okResp)
	L["server.busy_ratio"] = ratio(delta("rtled_responses_total", "status", "busy"), deltaBy("rtled_responses_total", "status"))
	L["server.fast_share"] = ratio(delta("rtle_commits_total", "kind", "fast"), deltaBy("rtle_commits_total", "kind"))
	L["server.abort_ratio"] = ratio(deltaBy("rtle_aborts_total", "reason"), deltaBy("rtle_attempts_total", "path"))
	internal := 1e6 * ratio(deltaBy("rtled_request_latency_seconds_sum", "op"), deltaBy("rtled_request_latency_seconds_count", "op"))
	L["server.internal_mean_us"] = internal
	L["server.outside_mean_us"] = r.clientMeanUS - internal
	L["server.boot_ms"] = float64(in.primary.boot.Microseconds()) / 1e3
	if in.replica != nil {
		ru1, rs1, err := in.replica.cpu()
		if err != nil {
			return nil, err
		}
		L["repl.replica_cpu_us_per_op"] = ratio(float64(((ru1 - ru0) + (rs1 - rs0)).Microseconds()), ops)
		L["repl.bytes_per_write"] = ratio(delta("rtled_repl_log_bytes"), float64(r.writes))
		L["repl.lag_entries_end"] = m1.get("rtled_repl_lag_entries")
		L["repl.sync_degraded"] = delta("rtled_repl_sync_degraded_total")
	}
	if traced {
		for _, name := range []string{"rtled_sections_total", "rtled_affine_ops_total", "rtled_write_batch_frames_count", "rtled_write_batch_frames_sum", "rtle_ops_total"} {
			r.counts = append(r.counts, countRecord{Name: "count", Key: name, Start: m0.get(name), End: m1.get(name)})
		}
	}
	return r, nil
}

// verify runs the after-run gates on the warm server: an untimed checked
// slice (recorded history linearizable, batch witnesses agree), and for the
// replicated pair item-for-item snapshot agreement at equal sequence.
func (in *wireInstance) verify() (attempted, failed uint64, err error) {
	ops := wireCheckOps
	if in.cfg.quick {
		ops /= 10
	}
	res, err := server.RunLoad(server.LoadConfig{
		Addr: in.primary.addr, Workload: "map", Conns: wireConns, Pipeline: 4,
		Ops: ops, ReadPct: in.sh.getPct, BatchPct: 5, Keys: wireKeys,
		Seed: in.cfg.seed + 17, Check: true,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("checked slice: %w", err)
	}
	attempted = res.Ops + res.Batches + res.Rejected
	failed = res.Rejected + uint64(len(res.WitnessViolations))
	switch {
	case !res.Checked:
		err = fmt.Errorf("checked slice: the check did not run")
	case !res.Linearizable:
		failed = attempted
		err = fmt.Errorf("checked slice: history not linearizable: %s", res.CheckDetail)
	case len(res.WitnessViolations) > 0:
		err = fmt.Errorf("checked slice: %d witness violations, first: %s", len(res.WitnessViolations), res.WitnessViolations[0])
	}
	if err != nil || in.replica == nil {
		return attempted, failed, err
	}

	if err := in.await("the replica to catch up", func(p, r promSet) bool {
		return p.get("rtled_repl_lag_entries") == 0 && r.get("rtled_repl_applied_seq") == p.get("rtled_repl_log_seq")
	}); err != nil {
		return attempted, failed, err
	}
	ps, err := fetchSnapshot(in.primary.addr)
	if err != nil {
		return attempted, failed, err
	}
	rs, err := fetchSnapshot(in.replica.addr)
	if err != nil {
		return attempted, failed, err
	}
	n, diff := diffSnapshots(ps, rs)
	attempted += n
	failed += diff
	if ps.Seq != rs.Seq {
		return attempted, failed + 1, fmt.Errorf("snapshots at different sequence: primary %d, replica %d", ps.Seq, rs.Seq)
	}
	if diff > 0 {
		return attempted, failed, fmt.Errorf("primary and replica disagree on %d of %d items at seq %d", diff, n, ps.Seq)
	}
	return attempted, failed, nil
}

func fetchSnapshot(addr string) (*snap.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	s, err := server.FetchSnapshot(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("snapshot of %s: %w", addr, err)
	}
	return s, nil
}

// diffSnapshots compares two snapshots item for item, whatever their shard
// layout; it returns the number of distinct keys seen and how many differ.
func diffSnapshots(a, b *snap.Snapshot) (items, differing uint64) {
	flat := func(s *snap.Snapshot) map[uint64]uint64 {
		m := make(map[uint64]uint64, s.Count())
		for _, sh := range s.Shards {
			for _, it := range sh {
				m[it.Key] = it.Val
			}
		}
		return m
	}
	am, bm := flat(a), flat(b)
	for k, v := range am {
		items++
		if bv, ok := bm[k]; !ok || bv != v {
			differing++
		}
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			items++
			differing++
		}
	}
	return items, differing
}

func (in *wireInstance) peakRSSMB() float64 { return peakRSSMB(in.primary.pid()) }

func (in *wireInstance) close() {
	for _, c := range in.clients {
		_ = c.Close() // the run is over; a close error carries no signal
	}
	in.clients = nil
	// The replica first, so the primary's drain is not held by its stream.
	for _, c := range []*child{in.replica, in.primary} {
		if c != nil {
			c.stop()
		}
	}
}

func (in *wireInstance) shape() map[string]any {
	sh := in.sh
	loop := "closed loop"
	if sh.rate > 0 {
		loop = fmt.Sprintf("open loop at %d ops/s, latency from due time", sh.rate)
	}
	flags := rtledArgs
	if sh.repl {
		flags = append(append([]string{}, flags...), "-repl-ack", "sync", "(+ one -replica-of child)")
	}
	return map[string]any{
		"kind": "rtled child over loopback TCP, " + loop, "conns": wireConns, "slots_per_conn": sh.slots,
		"rate": sh.rate, "keys": wireKeys, "prefilled": "half", "key_dist": "uniform",
		"mix_get_put_delete": fmt.Sprintf("%d:%d:%d", sh.getPct, sh.putPct, 100-sh.getPct-sh.putPct),
		"rtled_flags":        flags, "method": serverMethod,
	}
}

// wireExtras measures what only the traced mode pays for: single-slot
// round trips, a snapshot fetch, the open loop's rate ladder and the
// replicated pair's cost against the same mix with replication off.
func wireExtras(cfg *runConfig, inst instance, base *repResult, layer map[string]float64) error {
	in := inst.(*wireInstance)
	trips := 10_000
	if cfg.quick {
		trips = 500
	}
	ping, err := in.roundTrips(trips, server.Request{Op: server.OpPing})
	if err != nil {
		return err
	}
	get, err := in.roundTrips(trips, server.Request{Op: check.OpGet, Arg1: 1})
	if err != nil {
		return err
	}
	layer["server.ping_rtt_us"], layer["server.get_rtt_us"] = ping, get
	layer["server.exec_handoff_us"] = get - ping

	t0 := time.Now()
	if _, err := fetchSnapshot(in.primary.addr); err != nil {
		return err
	}
	layer["snap.fetch_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	if cfg.quick {
		return nil
	}

	if in.sh.rate > 0 {
		// The ladder: one repetition at half and at twice the workload's
		// rate. The knee is the highest rate that keeps p90 within 1 ms
		// with no failure and no growing backlog.
		okRate := 0.0
		judge := func(rate int, r *repResult) {
			if r.failed == 0 && r.latencyUS(0.90) <= 1000 && !r.lateGrowing {
				okRate = max(okRate, float64(rate))
			}
		}
		judge(in.sh.rate, base)
		for _, step := range []struct {
			rate int
			tag  string
		}{{in.sh.rate / 2, "30k"}, {in.sh.rate * 2, "120k"}} {
			sh := in.sh
			sh.rate = step.rate
			r := in.load(sh, cfg.repDur, cfg.seed*1000003+uint64(step.rate), false)
			layer["server.ladder_p50_us_"+step.tag] = r.latencyUS(0.50)
			layer["server.ladder_p90_us_"+step.tag] = r.latencyUS(0.90)
			judge(step.rate, r)
		}
		layer["server.max_ok_rate"] = okRate
	}
	if in.sh.repl {
		sh := in.sh
		sh.repl = false
		plain, err := newWire(sh, cfg, cfg.seed)
		if err != nil {
			return err
		}
		defer plain.close()
		r := plain.load(sh, cfg.repDur, cfg.seed*1000003, false)
		layer["repl.sync_cost_ratio"] = ratio(base.opsPerSec(), r.opsPerSec())
	}
	return nil
}

// roundTrips times n sequential requests on a fresh connection with nothing
// else in flight and returns the median in µs.
func (in *wireInstance) roundTrips(n int, req server.Request) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := server.DialContext(ctx, in.primary.addr)
	if err != nil {
		return 0, fmt.Errorf("dialling rtled: %w", err)
	}
	defer c.Close()
	var res [1]server.Result
	lat := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		rq := req
		t0 := time.Now()
		resp, err := c.DoInto(&rq, res[:])
		if err != nil {
			return 0, fmt.Errorf("round trip: %w", err)
		}
		if resp.Status != server.StatusOK {
			return 0, fmt.Errorf("round trip answered %v", resp.Status)
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return float64(percentile(sortedCopy(lat), 0.50)) / 1e3, nil
}
