package core_test

import (
	"sync/atomic"
	"testing"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// BenchmarkFGTLELockSectionBesideReader is paper Fig. 12 at two threads, the
// shape of the canonical benchmark's avl_lockheld: b.N HTM-unfriendly
// updates of a seeded 8192-key AVL set, each of which ends under the lock
// stamping orecs with plain stores, while a second thread only Finds — on
// the fast path between sections, on the instrumented slow path during
// them. ns/section is the lock holder's time per section, which bounds
// what the reader can overlap with.
func BenchmarkFGTLELockSectionBesideReader(b *testing.B) {
	const keys = 8192
	m := mem.New(harness.DefaultSetHeapWords(keys, 2))
	set := avl.New(m)
	harness.SeedSet(set, keys)
	meth := core.NewFGTLE(m, 256, core.Policy{})
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		find := harness.NewSetWorker(set, meth.NewThread(), harness.SetMix{}, keys)
		for r := rng.NewXoshiro256(2); !stop.Load(); {
			find(r)
		}
	}()
	holder := meth.NewThread()
	update := harness.NewUnfriendlySetWorker(set, holder, keys, true)
	r := rng.NewXoshiro256(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update(r)
	}
	b.StopTimer()
	stop.Store(true)
	<-done
	st := holder.Stats()
	b.ReportMetric(float64(st.LockHoldNanos)/float64(st.LockRuns), "ns/section")
}
