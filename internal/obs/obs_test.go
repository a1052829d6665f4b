package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/obs"
	"rtle/internal/spinlock"
)

// allMethods covers every synchronization method in the repository.
var allMethods = []string{
	"Lock", "TLE", "HLE", "RW-TLE", "FG-TLE(64)", "FG-TLE(adaptive)",
	"ALE(64)", "NOrec", "RHNOrec",
}

// runSet drives a small AVL-set workload on the named method with reg
// attached and returns the harness result (merged quiescent stats).
func runSet(t testing.TB, method string, reg core.Observer, threads, ops int) *harness.Result {
	t.Helper()
	const keyRange = 512
	m := mem.New(harness.DefaultSetHeapWords(keyRange, threads) + 1<<18)
	set := avl.New(m)
	harness.SeedSet(set, keyRange)
	policy := core.Policy{Observer: reg, HTM: htm.Config{InterleaveEvery: 8}}
	meth, err := harness.BuildMethod(method, m, policy)
	if err != nil {
		t.Fatal(err)
	}
	return harness.Run(meth, harness.Config{
		Threads: threads, OpsPerThread: ops, Seed: 42,
	}, harness.SetWorkerFactory(set, harness.SetMix{InsertPct: 30, RemovePct: 30}, keyRange))
}

// TestSnapshotMatchesMergedStats checks, for every method, that the
// registry's aggregated snapshot agrees field-for-field with the quiescent
// core.Stats merge the harness computes — i.e. that the live layer and the
// classic counters can never drift.
func TestSnapshotMatchesMergedStats(t *testing.T) {
	for _, method := range allMethods {
		t.Run(method, func(t *testing.T) {
			reg := obs.NewRegistry(obs.Config{})
			res := runSet(t, method, reg, 4, 2000)
			snap := reg.Snapshot()

			if !reflect.DeepEqual(snap.Stats, res.Total) {
				t.Errorf("snapshot stats diverge from merged quiescent stats:\nsnapshot: %+v\nmerged:   %+v",
					snap.Stats, res.Total)
			}
			if snap.Threads != res.Threads {
				t.Errorf("snapshot saw %d threads, harness ran %d", snap.Threads, res.Threads)
			}
			for i, ts := range snap.PerThread {
				if !reflect.DeepEqual(ts.Stats, res.PerThread[ts.Thread]) {
					t.Errorf("thread %d shard diverges from its quiescent stats", i)
				}
			}
			// Latency histograms must count exactly the sampled blocks,
			// ceil(n/16) of a thread's n (ALE's extra STM bookings don't
			// observe latency twice).
			var histTotal, sampled uint64
			for p := 0; p < core.NumPaths; p++ {
				histTotal += snap.Latency[p].Count
			}
			for _, st := range res.PerThread {
				sampled += sampledBlocks(st.Ops)
			}
			if histTotal != sampled {
				t.Errorf("latency histograms count %d observations, want %d sampled of Ops=%d", histTotal, sampled, snap.Stats.Ops)
			}
		})
	}
}

// sampledBlocks is how many of a thread's n atomic blocks are timed: its
// 1st, 17th, 33rd, ...
func sampledBlocks(n uint64) uint64 { return (n + 15) / 16 }

// slotTap is a Registry that also keeps the slots it hands out, so a test
// can read each thread's published copy on its own.
type slotTap struct {
	*obs.Registry
	mu    sync.Mutex
	slots []*core.Slot
}

func (r *slotTap) ObserveThread(method string) *core.Slot {
	s := r.Registry.ObserveThread(method)
	r.mu.Lock()
	r.slots = append(r.slots, s)
	r.mu.Unlock()
	return s
}

// checkSampled checks that every slot's latency histograms count exactly
// the sampled blocks of the Ops published beside them.
func (r *slotTap) checkSampled(t *testing.T, method string) {
	t.Helper()
	r.mu.Lock()
	slots := append([]*core.Slot(nil), r.slots...)
	r.mu.Unlock()
	for i, s := range slots {
		st, lat := s.Read()
		var n uint64
		for p := range lat {
			n += lat[p].Count
		}
		if want := sampledBlocks(st.Ops); n != want {
			t.Errorf("%s: thread %d published %d latency samples beside Ops=%d, want %d", method, i, n, st.Ops, want)
		}
	}
}

// TestSnapshotCoherentMidRun hammers Snapshot concurrently with running
// workers (this is the test the race detector exercises) and checks every
// mid-run view: TotalCommits <= Ops, per hardware path attempts >= commits
// + aborts, and per thread a latency sample for exactly one block in 16.
// ALE is excluded: its Stats dual-book software sections by design, so
// TotalCommits > Ops even at rest.
func TestSnapshotCoherentMidRun(t *testing.T) {
	methods := []string{"TLE", "RW-TLE", "FG-TLE(64)", "FG-TLE(adaptive)", "HLE", "NOrec", "RHNOrec"}
	for _, method := range methods {
		t.Run(method, func(t *testing.T) {
			t.Parallel()
			reg := &slotTap{Registry: obs.NewRegistry(obs.Config{TraceCapacity: 256})}
			var stop atomic.Bool
			var snaps int
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var prev *obs.Snapshot
				for !stop.Load() {
					snap := reg.Snapshot()
					snaps++
					checkCoherent(t, method, snap)
					reg.checkSampled(t, method)
					if prev != nil {
						d := snap.Delta(prev)
						if d.Stats.Ops > snap.Stats.Ops {
							t.Errorf("delta ops %d exceed cumulative ops %d", d.Stats.Ops, snap.Stats.Ops)
						}
					}
					prev = snap
					time.Sleep(time.Millisecond)
				}
			}()
			runSet(t, method, reg, 4, 3000)
			stop.Store(true)
			wg.Wait()
			if snaps == 0 {
				t.Fatal("snapshot goroutine never ran")
			}
			// The final view must also be coherent and non-empty.
			final := reg.Snapshot()
			checkCoherent(t, method, final)
			reg.checkSampled(t, method)
			if final.Stats.Ops == 0 {
				t.Fatal("no ops observed")
			}
		})
	}
}

// TestSnapshotBesideParkedThread parks a TLE thread inside Atomic, waiting
// for a lock the test holds: Snapshot must not wait for the block in
// flight, and once the block completes the registry must hold the
// thread's Stats exactly.
func TestSnapshotBesideParkedThread(t *testing.T) {
	reg := obs.NewRegistry(obs.Config{})
	m := mem.New(1 << 12)
	meth, err := harness.BuildMethod("TLE", m, core.Policy{Observer: reg})
	if err != nil {
		t.Fatal(err)
	}
	lock := meth.(interface{ Lock() *spinlock.Lock }).Lock()
	word := m.AllocLines(1)
	th := meth.NewThread()
	incr := func(c core.Context) { c.Write(word, c.Read(word)+1) }
	for i := 0; i < 20; i++ {
		th.Atomic(incr)
	}

	lock.Acquire()
	done := make(chan struct{})
	go func() {
		defer close(done)
		th.Atomic(incr)
	}()
	waitInFrame(t, "spinlock.(*Lock).WaitUntilFree")
	taken := make(chan *obs.Snapshot)
	go func() { taken <- reg.Snapshot() }()
	select {
	case snap := <-taken:
		if snap.Stats.Ops != 20 {
			t.Errorf("snapshot beside the parked block saw Ops=%d, want the 20 before it", snap.Stats.Ops)
		}
	case <-time.After(time.Second):
		t.Fatal("Snapshot waited for a block in flight")
	}
	lock.Release()
	<-done

	if snap := reg.Snapshot(); snap.Stats != *th.Stats() {
		t.Errorf("snapshot %+v != thread stats %+v", snap.Stats, *th.Stats())
	}
}

// waitInFrame waits until some goroutine's stack holds a call of fn.
func waitInFrame(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(fn)) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s", fn)
}

func checkCoherent(t *testing.T, method string, snap *obs.Snapshot) {
	t.Helper()
	st := &snap.Stats
	if st.TotalCommits() > st.Ops {
		t.Errorf("%s: incoherent snapshot: TotalCommits %d > Ops %d", method, st.TotalCommits(), st.Ops)
	}
	var fastAborts, slowAborts uint64
	for i := 0; i < htm.NumReasons; i++ {
		fastAborts += st.FastAborts[i]
		slowAborts += st.SlowAborts[i]
	}
	if st.FastCommits+fastAborts > st.FastAttempts {
		t.Errorf("%s: fast commits %d + aborts %d exceed attempts %d",
			method, st.FastCommits, fastAborts, st.FastAttempts)
	}
	if st.SlowCommits+slowAborts > st.SlowAttempts {
		t.Errorf("%s: slow commits %d + aborts %d exceed attempts %d",
			method, st.SlowCommits, slowAborts, st.SlowAttempts)
	}
}

// TestDelta checks that consecutive snapshots subtract to the activity in
// between, field for field.
func TestDelta(t *testing.T) {
	reg := obs.NewRegistry(obs.Config{})
	runSet(t, "TLE", reg, 2, 500)
	first := reg.Snapshot()
	runSet(t, "TLE", reg, 2, 500)
	second := reg.Snapshot()

	d := second.Delta(first)
	var want core.Stats = second.Stats
	sub := first.Stats
	// Reconstruct via Merge: d + first == second.
	got := d.Stats
	got.Merge(&sub)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delta + first != second:\ndelta+first: %+v\nsecond:      %+v", got, want)
	}
	if d.Stats.Ops == 0 {
		t.Error("delta shows no activity between snapshots")
	}
	if d.ElapsedNanos <= 0 {
		t.Errorf("delta elapsed %d, want positive", d.ElapsedNanos)
	}
}

// TestDeltaSince checks the registry's built-in baseline tracking.
func TestDeltaSince(t *testing.T) {
	reg := obs.NewRegistry(obs.Config{})
	runSet(t, "TLE", reg, 1, 300)
	d1 := reg.DeltaSince()
	if d1.Stats.Ops == 0 {
		t.Fatal("first delta empty")
	}
	d2 := reg.DeltaSince()
	if d2.Stats.Ops != 0 {
		t.Errorf("second delta with no activity shows %d ops", d2.Stats.Ops)
	}
}

// TestTraceRing checks capacity bounding and drop accounting.
func TestTraceRing(t *testing.T) {
	reg := obs.NewRegistry(obs.Config{TraceCapacity: 8})
	// HLE on a contended workload transitions between fast and lock paths.
	runSet(t, "HLE", reg, 4, 2000)
	snap := reg.Snapshot()
	if len(snap.Trace) > 8 {
		t.Errorf("trace holds %d events, capacity 8", len(snap.Trace))
	}
	for i := 1; i < len(snap.Trace); i++ {
		if snap.Trace[i].UnixNanos < snap.Trace[i-1].UnixNanos {
			t.Errorf("trace not in time order at %d", i)
		}
	}
	for _, ev := range snap.Trace {
		if ev.From == ev.To {
			t.Errorf("self-transition recorded: %+v", ev)
		}
	}
}

// TestExporters smoke-tests the Prometheus and JSON renderings.
func TestExporters(t *testing.T) {
	reg := obs.NewRegistry(obs.Config{})
	runSet(t, "FG-TLE(64)", reg, 2, 1000)
	snap := reg.Snapshot()

	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"rtle_ops_total", "rtle_commits_total{kind=\"fast\"}",
		"rtle_attempts_total{path=\"fast\"}", "rtle_atomic_latency_seconds_bucket",
		"le=\"+Inf\"", "rtle_threads 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	if _, ok := decoded["stats"]; !ok {
		t.Error("json output missing stats")
	}
}

// TestLatencyBuckets pins the log2 bucketing of a thread's histogram.
func TestLatencyBuckets(t *testing.T) {
	var l obs.LatencySnapshot
	for _, nanos := range []int64{0, 1, 2, 3, 1000, 1 << 40} {
		l.Observe(nanos)
	}
	if l.Count != 6 {
		t.Fatalf("count %d, want 6", l.Count)
	}
	// 0 and 1 land in bucket 0; 2 and 3 in bucket 1; 1000 in bucket 9
	// ([512, 1024)); 1<<40 in bucket 40.
	for b, want := range map[int]uint64{0: 2, 1: 2, 9: 1, 40: 1} {
		if l.Counts[b] != want {
			t.Errorf("bucket %d holds %d, want %d", b, l.Counts[b], want)
		}
	}
	if l.SumNanos != 0+1+2+3+1000+1<<40 {
		t.Errorf("sum %d wrong", l.SumNanos)
	}
}
