// BenchmarkObserverOverhead, the model ROADMAP gives for the cost of
// observability on the hot path. The paper's figures and the design
// ablations are regenerated by cmd/experiments, not by benchmarks here.
package rtle_test

import (
	"testing"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/mem"
	"rtle/internal/obs"
)

// benchSet runs one AVL-set configuration for b.N total operations and
// reports throughput.
func benchSet(b *testing.B, method string, keyRange uint64, mix harness.SetMix, threads int, policy core.Policy) {
	b.Helper()
	m := mem.New(harness.DefaultSetHeapWords(keyRange, threads) + 1<<18)
	set := avl.New(m)
	harness.SeedSet(set, keyRange)
	meth := harness.MustBuildMethod(method, m, policy)
	ops := b.N/threads + 1
	b.ResetTimer()
	res := harness.Run(meth, harness.Config{
		Threads: threads, OpsPerThread: ops, Seed: 1,
	}, harness.SetWorkerFactory(set, mix, keyRange))
	b.StopTimer()
	b.ReportMetric(res.Throughput(), "ops/ms")
	if err := set.CheckInvariants(core.Direct(m)); err != nil {
		b.Fatalf("tree corrupted: %v", err)
	}
}

// BenchmarkObserverOverhead measures the cost of the live-observability
// layer on the hot path: the same FG-TLE workload with Policy.Observer nil
// (the production default — each event pays one nil check) and with an
// obs.Registry attached (every event lands in atomic shard counters plus a
// latency-histogram update per op). The acceptance bar for the nil case is
// within 2% of the pre-observability baseline; compare the two sub-bench
// throughputs to read the enabled cost.
func BenchmarkObserverOverhead(b *testing.B) {
	mix := harness.SetMix{InsertPct: 20, RemovePct: 20}
	b.Run("observer=off", func(b *testing.B) {
		benchSet(b, "FG-TLE(256)", 8192, mix, 4, core.Policy{})
	})
	b.Run("observer=on", func(b *testing.B) {
		// TraceCapacity -1: isolate the counter/histogram cost from
		// the (mutex-guarded, samplable) trace ring.
		reg := obs.NewRegistry(obs.Config{TraceCapacity: -1})
		benchSet(b, "FG-TLE(256)", 8192, mix, 4, core.Policy{Observer: reg})
	})
	b.Run("observer=on+trace", func(b *testing.B) {
		reg := obs.NewRegistry(obs.Config{})
		benchSet(b, "FG-TLE(256)", 8192, mix, 4, core.Policy{Observer: reg})
	})
}
