package harness

import (
	"sync"
	"time"
)

// On a shared virtual machine two runnable threads are not always two
// running cores: after the guest has idled, this repository's development
// host executes its two vCPUs one after the other for the first second or so
// of load, and nothing the process can read (CPU ÷ wall, steal time) shows it
// (ROADMAP item 1). A two-threaded measurement taken then has no overlap in
// it. The probe below does show it.

// spinIters sizes the probe's arithmetic loop at a few milliseconds.
const spinIters = 1 << 20

// spin runs the fixed arithmetic loop and returns how long it took.
func spin() time.Duration {
	start := time.Now()
	x := uint64(start.UnixNano()) | 1
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	if x == 0 { // never (xorshift keeps a non-zero state), but the loop must feed something
		d = 0
	}
	return d
}

// ParallelRatio times the loop on one goroutine, then on two at once, and
// returns two ÷ one: ≈ 1.0 when the two run on two cores at the same time,
// ≈ 2.0 when they take turns on one — a one-core machine, GOMAXPROCS=1, or a
// guest whose vCPUs are not co-scheduled. Each side is the faster of two
// takes, so one preemption does not decide the reading; ≈ 10 ms in all, 20
// when they take turns.
func ParallelRatio() float64 {
	one := min(spin(), spin())
	two := min(spinPair(), spinPair())
	return float64(two) / float64(one)
}

// spinPair runs the loop on two goroutines at once and returns how long the
// pair took, start to finish.
func spinPair() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		spin()
	}()
	spin()
	wg.Wait()
	return time.Since(start)
}

// Warm-up limits: what counts as overlapping, and how long to wait for it.
const (
	parallelEnough = 1.2
	warmBudget     = 2 * time.Second
)

// WarmUntilParallel keeps both cores busy — the probe is its own load —
// until ParallelRatio reads under 1.2, and returns the last reading. It
// gives up after two seconds and reports ok = false: a one-core runner never
// gets there, and the caller should say so beside whatever it measures next.
func WarmUntilParallel() (ratio float64, ok bool) {
	for start := time.Now(); ; {
		ratio = ParallelRatio()
		if ratio < parallelEnough {
			return ratio, true
		}
		if time.Since(start) > warmBudget {
			return ratio, false
		}
	}
}
