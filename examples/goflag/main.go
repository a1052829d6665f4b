// goflag demonstrates the paper's §5 limitation (Figure 4) and its
// lazy-subscription remedy, live, entirely through the public rtle API.
//
// The scenario: Thread 1 takes the lock, sets GoFlag, and only later
// initializes Ptr before unlocking. Thread 2 spins on GoFlag outside any
// critical section, then runs an *empty* critical section purely as a
// barrier ("wait until the lock is free"), then dereferences Ptr.
//
// Under a plain lock — and under standard TLE — the empty critical
// section cannot complete while Thread 1 holds the lock, so Ptr is always
// initialized when Thread 2 reads it. Under refined TLE the empty
// critical section can commit on the slow path *while the lock is held*,
// and Thread 2 observes Ptr == 0. Enabling lazy subscription (§5)
// restores the blocking behaviour.
//
// Run with: go run ./examples/goflag
package main

import (
	"fmt"
	"runtime"

	"rtle"
)

func run(lazy bool) (sawNull int) {
	const rounds = 200
	for i := 0; i < rounds; i++ {
		m := rtle.NewMemory(1 << 16)
		opts := []rtle.Option{
			rtle.WithMemory(m),
			rtle.WithOrecs(64),
			// Pace the lock holder so its critical section spans
			// scheduler slices, as a long computation would.
			rtle.WithHTM(rtle.HTMConfig{InterleaveEvery: 2}),
		}
		if lazy {
			opts = append(opts, rtle.WithLazySubscription())
		}
		tm := rtle.MustNew(rtle.FGTLE, opts...)
		goFlag := m.AllocLines(1)
		ptr := m.AllocLines(1)
		scratch := m.AllocLines(64)

		t1 := tm.NewThread()
		t2 := tm.NewThread()
		done := make(chan struct{})
		go func() {
			t1.Atomic(func(c rtle.Context) {
				c.Unsupported() // force the lock path, as a long CS would
				c.Write(goFlag, 1)
				// A long computation between the flag and the
				// pointer initialization.
				for w := 0; w < 64; w++ {
					c.Write(scratch+rtle.Addr(w*rtle.WordsPerLine), uint64(w))
				}
				c.Write(ptr, 0xCAFE)
			})
			close(done)
		}()

		// Thread 2: wait for GoFlag outside the critical section.
		for m.Load(goFlag) == 0 {
			runtime.Gosched()
		}
		// Barrier: empty critical section.
		t2.Atomic(func(rtle.Context) {})
		// Expectation (under lock semantics): Ptr is non-null now.
		if m.Load(ptr) == 0 {
			sawNull++
		}
		<-done
	}
	return sawNull
}

func main() {
	fmt.Println("Figure 4 scenario, 200 rounds each:")
	n := run(false)
	fmt.Printf("  refined TLE (eager):  saw Ptr==NULL %d times — the §5 limitation\n", n)
	n = run(true)
	fmt.Printf("  lazy subscription:    saw Ptr==NULL %d times — lock semantics restored\n", n)
	if n != 0 {
		fmt.Println("UNEXPECTED: lazy subscription failed to restore barrier semantics")
	}
}
