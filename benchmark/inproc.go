package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtle"
	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
	"rtle/internal/wanghash"
)

// serverMethod is the method every workload runs, so layers line up: it is
// rtled's default.
const serverMethod = "FG-TLE(256)"

// inprocHeapWords sizes the simulated heap of the in-process workloads
// (rtle.New's default: room for every key plus churn).
const inprocHeapWords = 1 << 20

// latBufs holds one latency sample buffer per thread, reused from one
// repetition to the next so the process's footprint does not depend on how
// many repetitions ran or when the collector last did.
type latBufs [loadThreads][]int64

func (l *latBufs) take(id int) []int64 {
	if l[id] == nil {
		l[id] = make([]int64, 0, 1<<19)
	}
	return l[id][:0]
}

func (l *latBufs) give(id int, buf []int64) { l[id] = buf }

// traceCap sizes a thread's span buffer for a repetition of dur: the
// fastest workload records under 250 k spans a second per thread.
func traceCap(dur time.Duration) int {
	return int(dur.Seconds()*250_000) + 1<<16
}

// selfPeakRSSMB reads this process's peak resident set from /proc.
func selfPeakRSSMB() float64 { return peakRSSMB(os.Getpid()) }

// peakRSSMB reads VmHWM of pid; 0 when /proc does not say.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // a malformed line reads as 0, like a missing one
				return kb / 1024
			}
		}
	}
	return 0
}

// abortLayers derives the htm.* stats metrics from a core.Stats delta and
// returns the commits it covers, the base of the per-path shares.
func abortLayers(s *core.Stats, layer map[string]float64) (commits float64) {
	attempts := float64(s.FastAttempts + s.SlowAttempts)
	var aborts float64
	for i := range s.FastAborts {
		aborts += float64(s.FastAborts[i] + s.SlowAborts[i])
	}
	layer["htm.abort_ratio"] = ratio(aborts, attempts)
	layer["htm.abort_conflict_share"] = ratio(float64(s.FastAborts[htm.Conflict]+s.SlowAborts[htm.Conflict]), aborts)
	layer["htm.abort_unsupported_share"] = ratio(float64(s.FastAborts[htm.Unsupported]+s.SlowAborts[htm.Unsupported]), aborts)
	return float64(s.TotalCommits())
}

// --- AVL set workloads -------------------------------------------------------

// avlShape is what distinguishes the three AVL workloads.
type avlShape struct {
	keys       uint64
	insertPct  int
	removePct  int
	unfriendly bool // thread 0 always ends under the lock, the rest only Find (paper §6.3)
}

type avlInstance struct {
	sh      avlShape
	method  core.Method
	set     *avl.Set
	handles []*avl.Handle // one per thread, kept across repetitions so recycled nodes are reused
	size    int           // keys the set must hold now
	lat     latBufs
}

func newAVL(sh avlShape, methodName string, policy core.Policy) (*avlInstance, error) {
	m := mem.New(inprocHeapWords)
	method, err := harness.BuildMethod(methodName, m, policy)
	if err != nil {
		return nil, err
	}
	in := &avlInstance{sh: sh, method: method, set: avl.New(m)}
	harness.SeedSet(in.set, sh.keys)
	in.size = in.set.Size(core.Direct(m))
	for i := 0; i < loadThreads; i++ {
		in.handles = append(in.handles, in.set.NewHandle())
	}
	return in, nil
}

func avlSetup(sh avlShape) func(*runConfig, uint64) (instance, error) {
	return func(cfg *runConfig, seed uint64) (instance, error) {
		in, err := newAVL(sh, serverMethod, core.Policy{})
		if err != nil {
			return nil, err
		}
		if _, err := in.rep(cfg.warmup, seed, false); err != nil {
			return nil, err
		}
		return in, nil
	}
}

// setWorker is one thread's operation loop over the set. It mirrors
// harness.NewSetWorker and harness.NewUnfriendlySetWorker but keeps each
// operation's result, which the size check after the repetition needs.
type setWorker struct {
	in         *avlInstance
	h          *avl.Handle
	t          core.Thread
	unfriendly bool
	findOnly   bool
	n          uint64
	inserted   uint64
	removed    uint64
	lat        []int64
	tb         *traceBuf
}

const (
	opFind = iota
	opInsert
	opRemove
)

var setOpNames = [...]string{"find", "insert", "remove"}

func (w *setWorker) step(r *rng.Xoshiro256) {
	sh := &w.in.sh
	kind := opFind
	var key uint64
	switch {
	case w.unfriendly:
		key = r.Uint64n(sh.keys)
		kind = opInsert + r.Intn(2)
	case w.findOnly:
		_ = r.Intn(100) // keep the stream aligned with the mixed worker's
		key = r.Uint64n(sh.keys)
	default:
		p := r.Intn(100)
		key = r.Uint64n(sh.keys)
		if p < sh.insertPct {
			kind = opInsert
		} else if p < sh.insertPct+sh.removePct {
			kind = opRemove
		}
	}
	w.n++
	switch {
	case w.tb != nil && w.n%traceEvery == 0:
		op := w.tb.begin("op", 0, setOpNames[kind])
		w.finish(kind, w.section(kind, key, func(body func(core.Context)) {
			tracedSection(w.tb, "section", w.tb.id(op), setOpNames[kind], w.t.Atomic, body)
		}))
		w.tb.end(op)
	case w.n%latencyEvery == 0:
		t0 := time.Now()
		w.finish(kind, w.call(kind, key))
		w.lat = append(w.lat, int64(time.Since(t0)))
	default:
		w.finish(kind, w.call(kind, key))
	}
}

// call runs one operation through the handle's public wrappers (or, for the
// unfriendly thread, the composed body the harness uses).
func (w *setWorker) call(kind int, key uint64) bool {
	if w.unfriendly {
		return w.section(kind, key, func(body func(core.Context)) { w.t.Atomic(body) })
	}
	switch kind {
	case opInsert:
		return w.h.Insert(w.t, key)
	case opRemove:
		return w.h.Remove(w.t, key)
	}
	return w.h.Contains(w.t, key)
}

// section runs the operation's critical-section body through atomic and
// does the handle bookkeeping the wrappers do.
func (w *setWorker) section(kind int, key uint64, atomic func(func(core.Context))) bool {
	var res bool
	atomic(func(c core.Context) {
		switch kind {
		case opInsert:
			res = w.h.InsertCS(c, key)
		case opRemove:
			res = w.h.RemoveCS(c, key)
		default:
			res = w.h.FindCS(c, key)
		}
		if w.unfriendly {
			c.Unsupported()
		}
	})
	switch kind {
	case opInsert:
		w.h.AfterInsert(res)
	case opRemove:
		w.h.AfterRemove(res)
	}
	return res
}

func (w *setWorker) finish(kind int, ok bool) {
	if !ok {
		return
	}
	switch kind {
	case opInsert:
		w.inserted++
	case opRemove:
		w.removed++
	}
}

// rep drives the set through harness.Run for dur and verifies it
// afterwards: the AVL invariants hold and the size is what the
// acknowledged inserts and removes say. A repetition that fails the check
// counts every operation as failed.
func (in *avlInstance) rep(dur time.Duration, seed uint64, traced bool) (*repResult, error) {
	workers := make([]*setWorker, loadThreads)
	base := time.Now()
	u0, s0 := selfCPU()
	hc := harness.Config{Threads: loadThreads, Duration: dur, Seed: seed}
	hres := harness.Run(in.method, hc, func(id int, t core.Thread) harness.Worker {
		w := &setWorker{in: in, h: in.handles[id], t: t, lat: in.lat.take(id)}
		if in.sh.unfriendly {
			w.unfriendly, w.findOnly = id == 0, id != 0
		}
		if traced {
			w.tb = newTraceBuf(base, id, traceCap(dur))
		}
		workers[id] = w
		return w.step
	})
	u1, s1 := selfCPU()

	r := &repResult{elapsed: hres.Elapsed, cpu: (u1 - u0) + (s1 - s0), layer: map[string]float64{}}
	for id, w := range workers {
		r.attempted += w.n
		in.size += int(w.inserted) - int(w.removed)
		r.lat = append(r.lat, sortedCopy(w.lat))
		in.lat.give(id, w.lat)
		if w.tb != nil {
			r.bufs = append(r.bufs, w.tb)
		}
	}
	st := &hres.Total
	commits := abortLayers(st, r.layer)
	r.layer["core.fast_share"] = ratio(float64(st.FastCommits), commits)
	r.layer["core.slow_share"] = ratio(float64(st.SlowCommits), commits)
	r.layer["core.lock_share"] = ratio(float64(st.LockRuns), commits)
	r.layer["core.attempts_per_op"] = ratio(float64(st.FastAttempts+st.SlowAttempts), float64(st.Ops))
	r.layer["core.lock_hold_share"] = ratio(float64(st.LockHoldNanos), float64(hres.Elapsed.Nanoseconds()))

	c := core.Direct(in.set.Memory())
	if err := in.set.CheckInvariants(c); err != nil {
		r.failed = r.attempted
		return r, nil
	}
	if got := in.set.Size(c); got != in.size {
		in.size = got // later repetitions are judged on their own
		r.failed = r.attempted
		return r, nil
	}
	if hres.Total.Ops != r.attempted {
		return nil, fmt.Errorf("method completed %d atomic blocks for %d operations", hres.Total.Ops, r.attempted)
	}
	r.ops = r.attempted
	return r, nil
}

func (in *avlInstance) verify() (uint64, uint64, error) { return 0, 0, nil }
func (in *avlInstance) peakRSSMB() float64              { return selfPeakRSSMB() }
func (in *avlInstance) close()                          {}

func (in *avlInstance) shape() map[string]any {
	sh := in.sh
	return map[string]any{
		"kind": "in-process closed loop", "threads": loadThreads, "method": in.method.Name(),
		"keys": sh.keys, "seeded": "half",
		"mix_insert_remove_find": fmt.Sprintf("%d:%d:%d", sh.insertPct, sh.removePct, 100-sh.insertPct-sh.removePct),
		"unfriendly_thread0":     sh.unfriendly,
	}
}

// avlExtras runs the paper's comparison on the same input: one reference
// repetition each under TLE, RW-TLE and the plain lock, and on avl_mixed
// the observer-overhead pair.
func avlExtras(observer bool) func(*runConfig, instance, *repResult, map[string]float64) error {
	return func(cfg *runConfig, in instance, base *repResult, layer map[string]float64) error {
		if cfg.quick {
			return nil
		}
		sh := in.(*avlInstance).sh
		ref := func(method string, policy core.Policy) (float64, error) {
			r, err := newAVL(sh, method, policy)
			if err != nil {
				return 0, err
			}
			if _, err := r.rep(cfg.warmup, cfg.seed, false); err != nil {
				return 0, err
			}
			rr, err := r.rep(cfg.repDur, cfg.seed*1000003, false)
			if err != nil {
				return 0, err
			}
			if rr.failed > 0 {
				return 0, fmt.Errorf("%s reference run failed verification", method)
			}
			return rr.opsPerSec(), nil
		}
		for _, m := range []struct{ key, method string }{
			{"core.ops_per_s_tle", "TLE"}, {"core.ops_per_s_rwtle", "RW-TLE"}, {"core.ops_per_s_lock", "Lock"},
		} {
			v, err := ref(m.method, core.Policy{})
			if err != nil {
				return err
			}
			layer[m.key] = v
		}
		layer["core.refined_vs_tle"] = ratio(base.opsPerSec(), layer["core.ops_per_s_tle"])
		if observer {
			v, err := ref(serverMethod, core.Policy{Observer: rtle.NewRegistry()})
			if err != nil {
				return err
			}
			layer["obs.observer_overhead_ratio"] = ratio(v, base.opsPerSec())
		}
		return nil
	}
}

// --- guard_counters ----------------------------------------------------------

const (
	guardCounters = 64 // line-sized counters
	guardReadPct  = 90 // RDo share; the rest are Do
	guardReadSpan = 4  // counters one RDo sums
)

// counterSection abstracts who provides mutual exclusion over the
// counters: the public guard, a raw RW-TLE thread, or sync.RWMutex.
type counterSection struct {
	read, write func(body func(core.Context))
}

type guardInstance struct {
	g        *rtle.RWMutex
	m        *mem.Memory
	counters [guardCounters]mem.Addr
	acked    uint64 // increments acknowledged so far
	lat      latBufs
}

func newCounters(m *mem.Memory) (c [guardCounters]mem.Addr) {
	for i := range c {
		c[i] = m.AllocLines(1)
	}
	return c
}

func guardSetup(cfg *runConfig, seed uint64) (instance, error) {
	g, err := rtle.NewRWMutex()
	if err != nil {
		return nil, err
	}
	in := &guardInstance{g: g, m: g.Memory(), counters: newCounters(g.Memory())}
	// Without the warm-up the first cells read roughly half the steady rate.
	if _, err := in.rep(cfg.warmup, seed, false); err != nil {
		return nil, err
	}
	return in, nil
}

// counterWorker is one goroutine's loop: 90 % read sections summing four
// counters, 10 % write sections incrementing one.
type counterWorker struct {
	counters *[guardCounters]mem.Addr
	sec      counterSection
	n        uint64
	incs     uint64
	sink     uint64
	lat      []int64
	tb       *traceBuf
}

func (w *counterWorker) step(r *rng.Xoshiro256) {
	write := r.Intn(100) >= guardReadPct
	at := r.Intn(guardCounters)
	body := func(c core.Context) {
		if write {
			a := w.counters[at]
			c.Write(a, c.Read(a)+1)
			return
		}
		var sum uint64
		for i := 0; i < guardReadSpan; i++ {
			sum += c.Read(w.counters[(at+i)%guardCounters])
		}
		w.sink = sum
	}
	run, name := w.sec.read, "rdo"
	if write {
		run, name = w.sec.write, "do"
	}
	w.n++
	switch {
	case w.tb != nil && w.n%traceEvery == 0:
		op := w.tb.begin("op", 0, name)
		tracedSection(w.tb, "section", w.tb.id(op), name, run, body)
		w.tb.end(op)
	case w.n%latencyEvery == 0:
		t0 := time.Now()
		run(body)
		w.lat = append(w.lat, int64(time.Since(t0)))
	default:
		run(body)
	}
	if write {
		w.incs++
	}
}

// runCounters drives sec from loadThreads goroutines for dur and returns
// the workers.
func runCounters(counters *[guardCounters]mem.Addr, sec func(id int) counterSection, lat *latBufs, dur time.Duration, seed uint64, traced bool) ([]*counterWorker, time.Duration) {
	workers := make([]*counterWorker, loadThreads)
	base := time.Now()
	for id := range workers {
		workers[id] = &counterWorker{counters: counters, sec: sec(id), lat: lat.take(id)}
		if traced {
			workers[id].tb = newTraceBuf(base, id, traceCap(dur))
		}
	}
	var stop atomic.Bool
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for id, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.NewXoshiro256(seed + uint64(id)*0x9e3779b97f4a7c15 + 1)
			<-gate
			for !stop.Load() {
				w.step(r)
			}
		}()
	}
	start := time.Now()
	close(gate)
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	wg.Wait()
	return workers, time.Since(start)
}

// rep drives the guard for dur and checks the gate: the counters sum to
// the acknowledged increments.
func (in *guardInstance) rep(dur time.Duration, seed uint64, traced bool) (*repResult, error) {
	before := in.g.Stats()
	u0, s0 := selfCPU()
	workers, elapsed := runCounters(&in.counters, func(int) counterSection {
		return counterSection{read: in.g.RDo, write: in.g.Do}
	}, &in.lat, dur, seed, traced)
	u1, s1 := selfCPU()
	after := in.g.Stats()

	r := &repResult{elapsed: elapsed, cpu: (u1 - u0) + (s1 - s0), layer: map[string]float64{}}
	for id, w := range workers {
		r.attempted += w.n
		in.acked += w.incs
		r.lat = append(r.lat, sortedCopy(w.lat))
		in.lat.give(id, w.lat)
		if w.tb != nil {
			r.bufs = append(r.bufs, w.tb)
		}
	}
	d := subStats(&after, &before)
	r.layer["guard.fast_share"] = ratio(float64(d.FastCommits), abortLayers(&d, r.layer))
	r.layer["guard.mode_switches"] = float64(d.ModeSwitches)

	var sum uint64
	c := rtle.Direct(in.m)
	for _, a := range in.counters {
		sum += c.Read(a)
	}
	if sum != in.acked {
		in.acked = sum
		r.failed = r.attempted
		return r, nil
	}
	r.ops = r.attempted
	return r, nil
}

// subStats returns the fields of a − b that the guard's layer metrics read.
func subStats(a, b *core.Stats) core.Stats {
	d := core.Stats{
		FastCommits: a.FastCommits - b.FastCommits, SlowCommits: a.SlowCommits - b.SlowCommits,
		LockRuns: a.LockRuns - b.LockRuns, ModeSwitches: a.ModeSwitches - b.ModeSwitches,
		FastAttempts: a.FastAttempts - b.FastAttempts, SlowAttempts: a.SlowAttempts - b.SlowAttempts,
	}
	for i := range d.FastAborts {
		d.FastAborts[i] = a.FastAborts[i] - b.FastAborts[i]
		d.SlowAborts[i] = a.SlowAborts[i] - b.SlowAborts[i]
	}
	return d
}

func (in *guardInstance) verify() (uint64, uint64, error) { return 0, 0, nil }
func (in *guardInstance) peakRSSMB() float64              { return selfPeakRSSMB() }
func (in *guardInstance) close()                          {}

func (in *guardInstance) shape() map[string]any {
	return map[string]any{
		"kind": "in-process closed loop", "goroutines": loadThreads, "guard": in.g.Name(),
		"counters": guardCounters, "rdo_pct": guardReadPct, "rdo_reads": guardReadSpan,
	}
}

// guardExtras compares the guard with what it wraps and what it replaces:
// the same sections under a raw RW-TLE method with fixed threads, and
// under sync.RWMutex with no speculation at all.
func guardExtras(cfg *runConfig, _ instance, base *repResult, layer map[string]float64) error {
	if cfg.quick {
		return nil
	}
	ref := func(sec func(m *mem.Memory) func(int) counterSection) float64 {
		m := mem.New(inprocHeapWords)
		counters := newCounters(m)
		s := sec(m)
		var lat latBufs
		runCounters(&counters, s, &lat, cfg.warmup, cfg.seed, false)
		workers, elapsed := runCounters(&counters, s, &lat, cfg.repDur, cfg.seed*1000003, false)
		var n uint64
		for _, w := range workers {
			n += w.n
		}
		return ratio(float64(n), elapsed.Seconds())
	}
	raw := ref(func(m *mem.Memory) func(int) counterSection {
		method := core.NewRWTLE(m, core.Policy{})
		return func(int) counterSection {
			t := method.NewThread()
			return counterSection{read: t.Atomic, write: t.Atomic}
		}
	})
	plain := ref(func(m *mem.Memory) func(int) counterSection {
		var mu sync.RWMutex
		c := core.Direct(m)
		return func(int) counterSection {
			return counterSection{
				read:  func(body func(core.Context)) { mu.RLock(); body(c); mu.RUnlock() },
				write: func(body func(core.Context)) { mu.Lock(); body(c); mu.Unlock() },
			}
		}
	})
	layer["guard.vs_raw_ratio"] = ratio(base.opsPerSec(), raw)
	layer["guard.vs_sync_ratio"] = ratio(base.opsPerSec(), plain)
	return nil
}

// seededHalf reports whether the benchmark seeds key k (the same half
// harness.SeedSet picks, so in-process and wire workloads start alike).
func seededHalf(k uint64) bool { return wanghash.Mix(k)&1 == 0 }
