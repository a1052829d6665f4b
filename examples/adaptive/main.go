// adaptive demonstrates the §4.2.1 adaptive FG-TLE variant live through
// the public rtle API: the orec array shrinks when critical sections use
// only a few orecs (making the lock holder's saturation optimization kick
// in sooner), grows back under workloads that saturate it, and the method
// drops to plain-TLE mode when slow-path speculation earns nothing.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"sync"

	"rtle"
	"rtle/internal/avl"
	"rtle/internal/harness"
	"rtle/internal/rng"
)

func main() {
	// Pacing (concurrency virtualization) keeps lock-holder windows open
	// long enough for slow-path commits — without them the adaptive
	// policy correctly concludes instrumentation is pure overhead and
	// just switches to TLE mode.
	tm := rtle.MustNew(rtle.AdaptiveFGTLE,
		rtle.WithMemoryWords(1<<22),
		rtle.WithHTM(rtle.HTMConfig{InterleaveEvery: 4}))
	// The adaptive probes (orec count, mode) live on the concrete
	// method type behind the Method interface.
	meth := tm.Method().(*rtle.AdaptiveMethod)
	m := tm.Memory()
	set := avl.New(m)
	harness.SeedSet(set, 64) // a tiny set: critical sections touch few orecs

	fmt.Printf("start:               %4d orecs\n", meth.CurrentOrecs())

	// Phase 1: HTM-unfriendly updates on a tiny structure force lock-path
	// executions, and their small footprints tell the adaptation policy
	// the big orec array is wasted — while concurrent readers keep the
	// slow path productive, so the method stays in FG mode and shrinks.
	s1 := phase(tm, set, 64, 4, 2000, true)
	fmt.Printf("after small-CS load: %4d orecs (%d resizes, %d mode switches)\n",
		meth.CurrentOrecs(), s1.Resizes, s1.ModeSwitches)

	// Phase 2: a single thread — slow-path speculation earns nothing, so
	// the method starts toggling into plain-TLE mode to shed barrier
	// costs (and probes back each window).
	s2 := phase(tm, set, 64, 1, 3000, true)
	fmt.Printf("after solo period:   %4d orecs (%d resizes, %d mode switches; TLE mode now: %v)\n",
		meth.CurrentOrecs(), s2.Resizes, s2.ModeSwitches, meth.InTLEMode())

	if err := set.CheckInvariants(rtle.Direct(m)); err != nil {
		fmt.Println("INVARIANT VIOLATION:", err)
		return
	}
	fmt.Println("set invariants hold across all adaptation decisions")
}

// phase runs ops operations across threads; unfriendly updates force the
// lock path on thread 0. It returns the phase's merged statistics.
func phase(tm *rtle.TM, set *avl.Set, keyRange uint64, threads, ops int, unfriendly bool) rtle.Stats {
	var wg sync.WaitGroup
	wg.Add(threads)
	ths := make([]rtle.Thread, threads)
	for g := 0; g < threads; g++ {
		th := tm.NewThread()
		ths[g] = th
		go func(id int, th rtle.Thread) {
			defer wg.Done()
			h := set.NewHandle()
			r := rng.NewXoshiro256(uint64(id) + 7)
			for i := 0; i < ops; i++ {
				key := r.Uint64n(keyRange)
				if unfriendly && id == 0 && i%3 == 0 {
					var res bool
					th.Atomic(func(c rtle.Context) {
						c.Unsupported()
						res = h.InsertCS(c, key)
					})
					h.AfterInsert(res)
				} else if r.Intn(2) == 0 {
					h.Contains(th, key)
				} else {
					h.Remove(th, key)
				}
			}
		}(g, th)
	}
	wg.Wait()
	var total rtle.Stats
	for _, th := range ths {
		total.Merge(th.Stats())
	}
	return total
}
