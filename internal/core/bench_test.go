package core_test

import (
	"sync/atomic"
	"testing"
	"time"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// The first two benchmarks below are paper Fig. 12 at two threads, the shape
// of the canonical benchmark's avl_lockheld, seen from either side: one
// thread makes HTM-unfriendly updates of a seeded 8192-key AVL set under
// FG-TLE(256), each of which ends under the lock stamping orecs with plain
// stores, while a second thread only Finds — on the fast path between
// sections, on the instrumented slow path during them. The third puts a
// thread that also writes beside the same updater: the side of FG-TLE's mode
// word no workload of the canonical benchmark sits on. All need -cpu 2 or
// more to mean anything.
const fig12Keys = 8192

// fig12Set seeds that set on a heap of its own, with the named method over it.
func fig12Set(method string) (*mem.Memory, *avl.Set, core.Method) {
	m := mem.New(harness.DefaultSetHeapWords(fig12Keys, 2))
	set := avl.New(m)
	harness.SeedSet(set, fig12Keys)
	return m, set, harness.MustBuildMethod(method, m, core.Policy{})
}

// beside runs w on a goroutine of its own until the returned stop is called;
// stop returns once the goroutine has exited. It first spins both cores
// until two threads really run at once (harness.WarmUntilParallel): started
// cold, this host runs the pair one after the other for a second, and a
// benchmark of what happens beside another thread then measures nothing.
func beside(b *testing.B, w harness.Worker, seed uint64) (stop func()) {
	if ratio, ok := harness.WarmUntilParallel(); !ok {
		b.Logf("two threads take turns here (two-spinner ratio %.2f): nothing below ran beside anything", ratio)
	}
	var stopped atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := rng.NewXoshiro256(seed); !stopped.Load(); {
			w(r)
		}
	}()
	return func() {
		stopped.Store(true)
		<-done
	}
}

// BenchmarkFGTLELockSectionBesideReader is the holder's side: b.N updates.
// ns/section is the lock holder's time per section, which bounds what the
// reader can overlap with; stores/section is what it spends it on — every
// plain store ticks the heap's clock once, and the reader's read-only
// commits never do.
func BenchmarkFGTLELockSectionBesideReader(b *testing.B) {
	m, set, meth := fig12Set("FG-TLE(256)")
	stop := beside(b, harness.NewSetWorker(set, meth.NewThread(), harness.SetMix{}, fig12Keys), 2)
	holder := meth.NewThread()
	update := harness.NewUnfriendlySetWorker(set, holder, fig12Keys, true)
	r := rng.NewXoshiro256(1)
	b.ResetTimer()
	clock := m.ClockLoad()
	for i := 0; i < b.N; i++ {
		update(r)
	}
	stores := m.ClockLoad() - clock
	b.StopTimer()
	stop()
	st := holder.Stats()
	b.ReportMetric(float64(st.LockHoldNanos)/float64(st.LockRuns), "ns/section")
	b.ReportMetric(float64(stores)/float64(st.LockRuns), "stores/section")
}

// BenchmarkFGTLESlowFindBesideHolder is the reader's side: b.N Finds beside
// a goroutine that loops real lock sections. ns/slow-commit is the time of
// a Find that committed on the slow path, its aborted attempts and their
// backoff included, and ns/fast-commit that of one that found the lock free
// (each Find is timed with one monotonic clock read, which is in both
// figures); aborts/slow-commit is how many failed attempts a slow commit
// cost. Nothing is reported when no Find met a held lock (-cpu 1, or a b.N
// too small to).
func BenchmarkFGTLESlowFindBesideHolder(b *testing.B) {
	_, set, meth := fig12Set("FG-TLE(256)")
	stop := beside(b, harness.NewUnfriendlySetWorker(set, meth.NewThread(), fig12Keys, true), 1)
	reader := meth.NewThread()
	find := harness.NewSetWorker(set, reader, harness.SetMix{}, fig12Keys)
	st := reader.Stats()
	r := rng.NewXoshiro256(2)
	var slowNanos, fastNanos time.Duration
	b.ResetTimer()
	start := time.Now()
	last := time.Duration(0)
	for i := 0; i < b.N; i++ {
		slow := st.SlowCommits
		find(r)
		now := time.Since(start)
		if st.SlowCommits != slow {
			slowNanos += now - last
		} else {
			fastNanos += now - last
		}
		last = now
	}
	b.StopTimer()
	stop()
	if st.SlowCommits == 0 {
		return
	}
	var aborts uint64
	for _, n := range st.SlowAborts {
		aborts += n
	}
	b.ReportMetric(float64(slowNanos.Nanoseconds())/float64(st.SlowCommits), "ns/slow-commit")
	b.ReportMetric(float64(fastNanos.Nanoseconds())/float64(st.FastCommits), "ns/fast-commit")
	b.ReportMetric(float64(aborts)/float64(st.SlowCommits), "aborts/slow-commit")
}

// BenchmarkFGTLESlowWritersBesideHolder is the other side of the mode word:
// b.N operations of a 20:20:60 thread beside the same updater, so four in
// ten of the slow attempts that meet a lock section write, the holder keeps
// admitting writers and keeps stamping r-orecs for them. ops/s counts both
// threads, as avl_lockheld's ops_per_s does; slow-commits/op is the share of
// the mixed thread's operations that completed beside the holder;
// turned-away/op is how many of its slow attempts aborted themselves at a
// barrier — at an orec the holder owns or, in a readers-only section, at the
// mode word; flips is how often the mode moved (a few per 10^5 sections,
// when a stalled vCPU lets 64 sections pass without a slow-path write).
func BenchmarkFGTLESlowWritersBesideHolder(b *testing.B) {
	_, set, meth := fig12Set("FG-TLE(256)")
	holder := meth.NewThread()
	stop := beside(b, harness.NewUnfriendlySetWorker(set, holder, fig12Keys, true), 1)
	mixed := meth.NewThread()
	op := harness.NewSetWorker(set, mixed, harness.SetMix{InsertPct: 20, RemovePct: 20}, fig12Keys)
	r := rng.NewXoshiro256(2)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		op(r)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	stop()
	hs, ms := holder.Stats(), mixed.Stats()
	b.ReportMetric(float64(hs.Ops+ms.Ops)/elapsed.Seconds(), "ops/s")
	b.ReportMetric(float64(ms.SlowCommits)/float64(b.N), "slow-commits/op")
	b.ReportMetric(float64(ms.SlowAborts[htm.Explicit])/float64(b.N), "turned-away/op")
	b.ReportMetric(float64(hs.ModeSwitches+ms.ModeSwitches), "flips")
}

// BenchmarkFGTLEFastFind is the per-access cost of the hardware fast path:
// one thread Finds uniform keys of the seeded 8192-key set, through
// FG-TLE(256)'s Atomic, which with no lock holder always commits on the
// uninstrumented fast path, and through core.Direct's plain loads. The
// difference between the two rows is what the htm layer and the method
// add to a Find.
func BenchmarkFGTLEFastFind(b *testing.B) {
	m, set, meth := fig12Set("FG-TLE(256)")
	h := set.NewHandle()
	b.Run("FG-TLE(256)", func(b *testing.B) {
		t := meth.NewThread()
		r := rng.NewXoshiro256(3)
		for i := 0; i < b.N; i++ {
			h.Contains(t, r.Uint64n(fig12Keys))
		}
		if st := t.Stats(); st.FastCommits != st.Ops {
			b.Fatalf("%d of %d Finds committed on the fast path", st.FastCommits, st.Ops)
		}
	})
	b.Run("Direct", func(b *testing.B) {
		c := core.Direct(m)
		r := rng.NewXoshiro256(3)
		for i := 0; i < b.N; i++ {
			h.FindCS(c, r.Uint64n(fig12Keys))
		}
	})
}
