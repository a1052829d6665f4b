// Quickstart: the smallest end-to-end use of the library through the
// public rtle API.
//
// It assembles an FG-TLE transactional-memory instance with a live-metrics
// registry attached, runs concurrent critical sections against a shared
// counter and a shared AVL set — showing how work lands on the HTM fast
// path, the instrumented slow path, or the lock — and reads the statistics
// back two ways: the quiescent per-thread counters, and a registry
// snapshot that would have been available while the workers were still
// running.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"rtle"
	"rtle/internal/avl"
	"rtle/internal/harness"
)

func main() {
	// 1. A transactional-memory instance: a simulated heap plus a
	//    synchronization method over it. Swap rtle.FGTLE for rtle.TLE,
	//    rtle.RWTLE, rtle.NOrec, ... freely — the critical-section code
	//    below does not change. The registry makes live metrics
	//    available while workers run.
	reg := rtle.NewRegistry()
	tm := rtle.MustNew(rtle.FGTLE,
		rtle.WithOrecs(256),
		rtle.WithObserver(reg))
	m := tm.Memory()

	// 2. Shared data: a counter and an AVL set, allocated on the
	//    instance's heap so the simulated HTM observes every access.
	counter := m.AllocLines(1)
	set := avl.New(m)
	harness.SeedSet(set, 1024)

	// 3. Concurrent workers. Each goroutine gets its own Thread (and
	//    per-thread data-structure handles).
	const goroutines = 4
	var wg sync.WaitGroup
	threads := make([]rtle.Thread, goroutines)
	for g := 0; g < goroutines; g++ {
		threads[g] = tm.NewThread()
	}
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(id int, th rtle.Thread) {
			defer wg.Done()
			h := set.NewHandle()
			for i := 0; i < 5000; i++ {
				key := uint64((id*5000 + i) % 1024)
				// A critical section is a function of a Context;
				// all shared accesses go through it.
				th.Atomic(func(c rtle.Context) {
					c.Write(counter, c.Read(counter)+1)
				})
				switch i % 3 {
				case 0:
					h.Insert(th, key)
				case 1:
					h.Remove(th, key)
				default:
					h.Contains(th, key)
				}
			}
		}(g, threads[g])
	}
	wg.Wait()

	// 4. Results and statistics, the quiescent way: merge per-thread
	//    counters after the workers are done.
	fmt.Printf("counter: %d (expected %d)\n", m.Load(counter), goroutines*5000)
	fmt.Printf("set size: %d\n", set.Size(rtle.Direct(m)))

	var total rtle.Stats
	for _, th := range threads {
		total.Merge(th.Stats())
	}
	fmt.Printf("atomic blocks: %d\n", total.Ops)
	fmt.Printf("  fast-path HTM commits: %d\n", total.FastCommits)
	fmt.Printf("  slow-path HTM commits (while lock held): %d\n", total.SlowCommits)
	fmt.Printf("  lock-path executions:  %d\n", total.LockRuns)
	fmt.Printf("  fast-path aborts:      %d\n", sum(total.FastAborts[:]))

	// 5. The same numbers the live way: a registry snapshot. Snapshot()
	//    is safe to call at any moment — including while the workers
	//    above were still running — and stays coherent (commits never
	//    exceed ops). It adds what quiescent stats cannot offer:
	//    per-path latency histograms (one block in 16 is timed) and a
	//    path-transition trace.
	snap := reg.Snapshot()
	fmt.Printf("registry: %d ops across %d threads agree with merged stats: %v\n",
		snap.Stats.Ops, snap.Threads, snap.Stats == total)
	fast := snap.Latency[rtle.PathFast]
	fmt.Printf("  mean fast-path latency: %.0fns over %d sampled ops\n", fast.MeanNanos(), fast.Count)
	fmt.Printf("  path transitions traced: %d\n", len(snap.Trace))

	if err := set.CheckInvariants(rtle.Direct(m)); err != nil {
		fmt.Println("INVARIANT VIOLATION:", err)
		return
	}
	fmt.Println("AVL invariants hold.")
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}
