// Package harness drives multi-threaded experiments over core.Methods and
// computes the derived statistics the paper's figures plot: total
// throughput and speedup (Fig. 5), slow-path throughput (Figs. 6, 8), time
// under lock (Fig. 7), execution-type distributions (Fig. 9), validation
// frequency (Fig. 10), and lock-fallback rates (§6.4.2).
//
// Experiments run either for a wall-clock duration (benchmarks) or for a
// fixed operation count per thread (tests, which must be deterministic in
// length). Every thread gets an independent seeded PRNG, threads start on
// a common barrier, and per-thread statistics are merged after the fleet
// quiesces.
package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/core"
	"rtle/internal/rng"
)

// Config configures one experiment run.
type Config struct {
	// Threads is the number of worker goroutines.
	Threads int
	// Duration selects wall-clock mode when positive.
	Duration time.Duration
	// OpsPerThread selects count mode when Duration is zero.
	OpsPerThread int
	// Seed derives each thread's PRNG stream.
	Seed uint64
	// Sample, when enabled, emits periodic live-metrics rows from an
	// obs.Registry for the duration of the run (see SampleConfig).
	Sample SampleConfig
}

// Worker performs one operation of a workload using the per-thread PRNG.
type Worker func(r *rng.Xoshiro256)

// WorkerFactory builds the Worker for thread id, binding whatever
// per-thread state the workload needs (a core.Thread, data-structure
// handles, ...).
type WorkerFactory func(id int, t core.Thread) Worker

// Result holds the outcome of one experiment run.
type Result struct {
	Method    string
	Threads   int
	Elapsed   time.Duration
	Total     core.Stats
	PerThread []core.Stats
}

// Run executes the workload produced by factory over method with cfg.
func Run(method core.Method, cfg Config, factory WorkerFactory) *Result {
	n := cfg.Threads
	if n <= 0 {
		n = 1
	}
	threads := make([]core.Thread, n)
	workers := make([]Worker, n)
	for i := 0; i < n; i++ {
		threads[i] = method.NewThread()
		workers[i] = factory(i, threads[i])
	}

	var stop atomic.Bool
	startGate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			r := rng.NewXoshiro256(cfg.Seed + uint64(id)*0x9e3779b97f4a7c15 + 1)
			w := workers[id]
			<-startGate
			if cfg.Duration > 0 {
				for !stop.Load() {
					w(r)
				}
			} else {
				for k := 0; k < cfg.OpsPerThread; k++ {
					w(r)
				}
			}
		}(i)
	}

	sampler := StartSampler(cfg.Sample)
	start := time.Now()
	close(startGate)
	if cfg.Duration > 0 {
		timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
		defer timer.Stop()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sampler.Stop()

	res := &Result{
		Method:    method.Name(),
		Threads:   n,
		Elapsed:   elapsed,
		PerThread: make([]core.Stats, n),
	}
	for i, t := range threads {
		res.PerThread[i] = *t.Stats()
		res.Total.Merge(t.Stats())
	}
	return res
}

// --- Derived metrics --------------------------------------------------------

// Throughput returns completed operations per millisecond (the unit of the
// paper's throughput figures).
func (r *Result) Throughput() float64 {
	ms := float64(r.Elapsed.Nanoseconds()) / 1e6
	if ms <= 0 {
		return 0
	}
	return float64(r.Total.Ops) / ms
}

// Speedup normalizes throughput by a baseline run (Fig. 5 uses the
// single-threaded Lock result).
func (r *Result) Speedup(base *Result) float64 {
	bt := base.Throughput()
	if bt <= 0 {
		return 0
	}
	return r.Throughput() / bt
}

// LockHold returns the total time the lock was held, summed over threads
// (holds are exclusive, so the sum is the aggregate hold time).
func (r *Result) LockHold() time.Duration {
	return time.Duration(r.Total.LockHoldNanos)
}

// SlowHTMThroughput returns slow-path HTM commits per millisecond of
// lock-held time — the SlowHTM series of Figs. 6 and 8.
func (r *Result) SlowHTMThroughput() float64 {
	return perMilli(r.Total.SlowCommits, r.Total.LockHoldNanos)
}

// LockPathThroughput returns lock-path executions per millisecond of
// lock-held time — the Lock series of Fig. 6.
func (r *Result) LockPathThroughput() float64 {
	return perMilli(r.Total.LockRuns, r.Total.LockHoldNanos)
}

// STMThroughput returns software-transaction commits per millisecond of
// software-transaction time — the SWSlow series of Fig. 8.
func (r *Result) STMThroughput() float64 {
	commits := r.Total.STMCommitsHTM + r.Total.STMCommitsLock + r.Total.STMCommitsRO
	return perMilli(commits, r.Total.STMTimeNanos)
}

// RHNOrecSlowHTMThroughput returns, for RHNOrec, hardware commits that had
// to bump the global timestamp per millisecond of software-transaction
// time — the SlowHTM series of Fig. 8.
func (r *Result) RHNOrecSlowHTMThroughput() float64 {
	return perMilli(r.Total.SlowCommits, r.Total.STMTimeNanos)
}

func perMilli(count uint64, nanos int64) float64 {
	if nanos <= 0 {
		return 0
	}
	return float64(count) / (float64(nanos) / 1e6)
}

// RelativeTimeUnderLock normalizes aggregate lock-hold time to a baseline
// run (Fig. 7 normalizes to the Lock method at the same thread count).
func (r *Result) RelativeTimeUnderLock(base *Result) float64 {
	if base.Total.LockHoldNanos <= 0 {
		return 0
	}
	// Normalize per completed lock-path execution so runs of different
	// lengths compare.
	own := safeDiv(float64(r.Total.LockHoldNanos), float64(r.Total.LockRuns))
	b := safeDiv(float64(base.Total.LockHoldNanos), float64(base.Total.LockRuns))
	return safeDiv(own, b)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ExecFractions returns the Fig. 9 execution-type distribution: fractions
// of completed atomic blocks per path. Read-only software commits are
// folded into STMFast, matching the paper's bucketing.
type ExecFractions struct {
	HTMFast float64 // hardware, no timestamp bump / uninstrumented fast path
	HTMSlow float64 // hardware with timestamp bump / instrumented slow path
	STMFast float64 // software committed via reduced HTM (or read-only)
	STMSlow float64 // software committed under the global lock
	Lock    float64 // pessimistic lock path (TLE family)
}

// ExecTypeDistribution computes ExecFractions from the merged stats.
func (r *Result) ExecTypeDistribution() ExecFractions {
	total := float64(r.Total.TotalCommits())
	if total == 0 {
		return ExecFractions{}
	}
	return ExecFractions{
		HTMFast: float64(r.Total.FastCommits) / total,
		HTMSlow: float64(r.Total.SlowCommits) / total,
		STMFast: float64(r.Total.STMCommitsHTM+r.Total.STMCommitsRO) / total,
		STMSlow: float64(r.Total.STMCommitsLock) / total,
		Lock:    float64(r.Total.LockRuns) / total,
	}
}

// ValidationsPerTx returns value-based validations per software
// transaction attempt (Fig. 10).
func (r *Result) ValidationsPerTx() float64 {
	if r.Total.STMStarts == 0 {
		return 0
	}
	return float64(r.Total.Validations) / float64(r.Total.STMStarts)
}
