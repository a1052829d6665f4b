package harness

import (
	"testing"
	"time"

	"rtle/internal/avl"
	"rtle/internal/bank"
	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func TestRunCountMode(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewTLE(m, core.Policy{})
	a := m.AllocLines(1)
	res := Run(meth, Config{Threads: 4, OpsPerThread: 100, Seed: 1},
		func(id int, th core.Thread) Worker {
			return func(r *rng.Xoshiro256) {
				th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
			}
		})
	if res.Total.Ops != 400 {
		t.Fatalf("Ops = %d, want 400", res.Total.Ops)
	}
	if m.Load(a) != 400 {
		t.Fatalf("counter = %d, want 400", m.Load(a))
	}
	if res.Threads != 4 || len(res.PerThread) != 4 {
		t.Fatalf("thread accounting wrong: %d/%d", res.Threads, len(res.PerThread))
	}
	if res.Method != "TLE" {
		t.Fatalf("method name %q", res.Method)
	}
}

func TestRunDurationMode(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewLock(m, core.Policy{})
	a := m.AllocLines(1)
	res := Run(meth, Config{Threads: 2, Duration: 50 * time.Millisecond, Seed: 1},
		func(id int, th core.Thread) Worker {
			return func(r *rng.Xoshiro256) {
				th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
			}
		})
	if res.Total.Ops == 0 {
		t.Fatal("no operations completed in duration mode")
	}
	if res.Elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed %v shorter than the configured duration", res.Elapsed)
	}
	if m.Load(a) != res.Total.Ops {
		t.Fatalf("counter %d != ops %d", m.Load(a), res.Total.Ops)
	}
}

func TestRunDefaultsToOneThread(t *testing.T) {
	m := mem.New(1 << 16)
	meth := core.NewLock(m, core.Policy{})
	res := Run(meth, Config{OpsPerThread: 5},
		func(id int, th core.Thread) Worker {
			return func(r *rng.Xoshiro256) { th.Atomic(func(core.Context) {}) }
		})
	if res.Threads != 1 || res.Total.Ops != 5 {
		t.Fatalf("defaulting wrong: %d threads, %d ops", res.Threads, res.Total.Ops)
	}
}

func TestSeedSetSizeAndDeterminism(t *testing.T) {
	m := mem.New(1 << 22)
	set := avl.New(m)
	const keyRange = 1024
	SeedSet(set, keyRange)
	c := core.Direct(m)
	size := set.Size(c)
	// A deterministic pseudo-random half: within 20% of keyRange/2.
	if size < keyRange*4/10 || size > keyRange*6/10 {
		t.Fatalf("seeded size %d not near %d", size, keyRange/2)
	}
	if err := set.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	m2 := mem.New(1 << 22)
	set2 := avl.New(m2)
	SeedSet(set2, keyRange)
	if set2.Size(core.Direct(m2)) != size {
		t.Fatal("SeedSet not deterministic")
	}
}

func TestSetWorkerMixRespected(t *testing.T) {
	m := mem.New(1 << 22)
	set := avl.New(m)
	SeedSet(set, 256)
	meth := core.NewLock(m, core.Policy{})
	res := Run(meth, Config{Threads: 2, OpsPerThread: 1500, Seed: 3},
		SetWorkerFactory(set, SetMix{InsertPct: 20, RemovePct: 20}, 256))
	if res.Total.Ops != 3000 {
		t.Fatalf("ops %d, want 3000", res.Total.Ops)
	}
	if err := set.CheckInvariants(core.Direct(m)); err != nil {
		t.Fatal(err)
	}
	// The set should stay near half-full under a balanced mix.
	size := set.Size(core.Direct(m))
	if size < 70 || size > 190 {
		t.Fatalf("set size %d drifted far from 128 under a balanced mix", size)
	}
}

func TestUnfriendlyFactoryForcesLockPath(t *testing.T) {
	m := mem.New(1 << 22)
	set := avl.New(m)
	SeedSet(set, 128)
	meth := core.NewFGTLE(m, 256, core.Policy{})
	res := Run(meth, Config{Threads: 3, OpsPerThread: 60, Seed: 2},
		UnfriendlyFactory(set, 128, true))
	// Thread 0's updates can never commit on HTM.
	if res.PerThread[0].LockRuns != 60 {
		t.Fatalf("unfriendly thread LockRuns = %d, want 60", res.PerThread[0].LockRuns)
	}
	if err := set.CheckInvariants(core.Direct(m)); err != nil {
		t.Fatal(err)
	}
}

func TestBankFactoryConserves(t *testing.T) {
	m := mem.New(1 << 18)
	b := bank.New(m, 32, 1000)
	meth := core.NewRWTLE(m, core.Policy{})
	Run(meth, Config{Threads: 4, OpsPerThread: 300, Seed: 5}, BankFactory(b, 50))
	if err := b.CheckConservation(core.Direct(m), 32*1000); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputAndSpeedup(t *testing.T) {
	r1 := &Result{Elapsed: time.Second, Total: core.Stats{Ops: 1000}}
	r2 := &Result{Elapsed: time.Second, Total: core.Stats{Ops: 4000}}
	if got := r1.Throughput(); got != 1.0 {
		t.Fatalf("Throughput = %v ops/ms, want 1.0", got)
	}
	if got := r2.Speedup(r1); got != 4.0 {
		t.Fatalf("Speedup = %v, want 4.0", got)
	}
	empty := &Result{}
	if empty.Throughput() != 0 || r1.Speedup(empty) != 0 {
		t.Fatal("zero guards failed")
	}
}

func TestSlowPathMetrics(t *testing.T) {
	r := &Result{Total: core.Stats{
		SlowCommits:   500,
		LockRuns:      100,
		LockHoldNanos: int64(100 * time.Millisecond),
	}}
	if got := r.SlowHTMThroughput(); got != 5.0 {
		t.Fatalf("SlowHTMThroughput = %v, want 5.0", got)
	}
	if got := r.LockPathThroughput(); got != 1.0 {
		t.Fatalf("LockPathThroughput = %v, want 1.0", got)
	}
	if (&Result{}).SlowHTMThroughput() != 0 {
		t.Fatal("zero guard failed")
	}
}

func TestRelativeTimeUnderLock(t *testing.T) {
	base := &Result{Total: core.Stats{LockRuns: 100, LockHoldNanos: 1000}}
	r := &Result{Total: core.Stats{LockRuns: 10, LockHoldNanos: 300}}
	// Per lock run: r 30ns vs base 10ns => 3x.
	if got := r.RelativeTimeUnderLock(base); got != 3.0 {
		t.Fatalf("RelativeTimeUnderLock = %v, want 3.0", got)
	}
}

func TestExecTypeDistribution(t *testing.T) {
	r := &Result{Total: core.Stats{
		FastCommits:    50,
		SlowCommits:    25,
		STMCommitsHTM:  10,
		STMCommitsRO:   5,
		STMCommitsLock: 5,
		LockRuns:       5,
	}}
	f := r.ExecTypeDistribution()
	if f.HTMFast != 0.5 || f.HTMSlow != 0.25 || f.STMFast != 0.15 || f.STMSlow != 0.05 || f.Lock != 0.05 {
		t.Fatalf("fractions wrong: %+v", f)
	}
}

func TestValidationsPerTxAndFallbackRate(t *testing.T) {
	r := &Result{Total: core.Stats{Validations: 30, STMStarts: 10, LockRuns: 2, Ops: 8}}
	if got := r.ValidationsPerTx(); got != 3.0 {
		t.Fatalf("ValidationsPerTx = %v, want 3", got)
	}
	if got := r.LockFallbackRate(); got != 0.25 {
		t.Fatalf("LockFallbackRate = %v, want 0.25", got)
	}
}

func TestDeterministicWorkloadSameSeed(t *testing.T) {
	run := func() uint64 {
		m := mem.New(1 << 22)
		set := avl.New(m)
		SeedSet(set, 128)
		meth := core.NewLock(m, core.Policy{})
		Run(meth, Config{Threads: 1, OpsPerThread: 1000, Seed: 42},
			SetWorkerFactory(set, SetMix{InsertPct: 30, RemovePct: 30}, 128))
		var sum uint64
		for _, k := range set.Keys(core.Direct(m)) {
			sum = sum*31 + k
		}
		return sum
	}
	if run() != run() {
		t.Fatal("single-threaded runs with the same seed diverged")
	}
}

func TestScanWorkerCapacityFallback(t *testing.T) {
	m := mem.New(1 << 22)
	set := avl.New(m)
	SeedSet(set, 8192)
	meth := core.NewFGTLE(m, 256, core.Policy{})
	mix := ScanMix{
		SetMix:   SetMix{InsertPct: 10, RemovePct: 10},
		ScanPct:  20,
		ScanSpan: 4096,
	}
	res := Run(meth, Config{Threads: 2, OpsPerThread: 100, Seed: 8},
		ScanWorkerFactory(set, mix, 8192))
	if res.Total.Ops != 200 {
		t.Fatalf("ops = %d", res.Total.Ops)
	}
	// Wide scans must overflow HTM capacity and reach the lock.
	if res.Total.LockRuns == 0 {
		t.Fatal("no lock fallbacks despite capacity-overflowing scans")
	}
	if err := set.CheckInvariants(core.Direct(m)); err != nil {
		t.Fatal(err)
	}
}

func TestScanWorkerClampsRange(t *testing.T) {
	// A span larger than the key range must not panic or scan outside.
	m := mem.New(1 << 22)
	set := avl.New(m)
	SeedSet(set, 64)
	meth := core.NewLock(m, core.Policy{})
	mix := ScanMix{ScanPct: 100, ScanSpan: 1 << 20}
	res := Run(meth, Config{Threads: 1, OpsPerThread: 50, Seed: 2},
		ScanWorkerFactory(set, mix, 64))
	if res.Total.Ops != 50 {
		t.Fatalf("ops = %d", res.Total.Ops)
	}
}
