// Tests for the public rtle API surface.
package rtle_test

import (
	"strings"
	"sync"
	"testing"

	"rtle"
)

// TestNewAllAlgorithms constructs every algorithm through the public
// constructor and runs a small concurrent counter workload against it.
func TestNewAllAlgorithms(t *testing.T) {
	algs := []rtle.Algorithm{
		rtle.Lock, rtle.TLE, rtle.HLE, rtle.RWTLE, rtle.FGTLE,
		rtle.AdaptiveFGTLE, rtle.ALE, rtle.NOrec, rtle.RHNOrec,
	}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			opts := []rtle.Option{rtle.WithMemoryWords(1 << 16)}
			switch alg {
			case rtle.Lock, rtle.HLE, rtle.NOrec:
				// No attempt loop; WithAttempts would be rejected.
			default:
				opts = append(opts, rtle.WithAttempts(3))
			}
			tm, err := rtle.New(alg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			m := tm.Memory()
			counter := m.AllocLines(1)

			const goroutines, opsEach = 4, 500
			var wg sync.WaitGroup
			wg.Add(goroutines)
			threads := make([]rtle.Thread, goroutines)
			for g := 0; g < goroutines; g++ {
				threads[g] = tm.NewThread()
			}
			for g := 0; g < goroutines; g++ {
				go func(th rtle.Thread) {
					defer wg.Done()
					for i := 0; i < opsEach; i++ {
						th.Atomic(func(c rtle.Context) {
							c.Write(counter, c.Read(counter)+1)
						})
					}
				}(threads[g])
			}
			wg.Wait()

			if got := m.Load(counter); got != goroutines*opsEach {
				t.Fatalf("counter = %d, want %d", got, goroutines*opsEach)
			}
			var total rtle.Stats
			for _, th := range threads {
				total.Merge(th.Stats())
			}
			if total.Ops != goroutines*opsEach {
				t.Fatalf("stats report %d ops, want %d", total.Ops, goroutines*opsEach)
			}
		})
	}
}

// TestNewOptionValidation covers every option × target pair, the targets
// being the nine algorithms under New plus NewMutex and NewRWMutex: options
// a target consumes are accepted, options it would silently ignore are
// rejected with an error that names them.
func TestNewOptionValidation(t *testing.T) {
	type target struct {
		name  string
		build func(...rtle.Option) error
	}
	var targets []target
	for _, alg := range []rtle.Algorithm{
		rtle.Lock, rtle.TLE, rtle.HLE, rtle.RWTLE, rtle.FGTLE,
		rtle.AdaptiveFGTLE, rtle.ALE, rtle.NOrec, rtle.RHNOrec,
	} {
		targets = append(targets, target{alg.String(), func(opts ...rtle.Option) error {
			_, err := rtle.New(alg, opts...)
			return err
		}})
	}
	targets = append(targets,
		target{"Mutex", func(opts ...rtle.Option) error { _, err := rtle.NewMutex(opts...); return err }},
		target{"RWMutex", func(opts ...rtle.Option) error { _, err := rtle.NewRWMutex(opts...); return err }})
	only := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	var all map[string]bool // nil: valid everywhere
	none := only()
	shared := rtle.NewMemory(1 << 18)
	cases := []struct {
		name  string // the options, joined by "+"; a rejection names each
		opts  []rtle.Option
		valid map[string]bool
	}{
		{"WithMemory", []rtle.Option{rtle.WithMemory(shared)}, all},
		{"WithMemoryWords", []rtle.Option{rtle.WithMemoryWords(1 << 16)}, all},
		{"WithMemory+WithMemoryWords",
			[]rtle.Option{rtle.WithMemory(shared), rtle.WithMemoryWords(1 << 16)}, none},
		{"WithObserver", []rtle.Option{rtle.WithObserver(rtle.NewRegistry())}, all},
		{"WithHTM", []rtle.Option{rtle.WithHTM(rtle.HTMConfig{InterleaveEvery: 2})}, all},
		{"WithPolicy", []rtle.Option{rtle.WithPolicy(rtle.Policy{Attempts: 3})}, all},
		{"WithAttempts", []rtle.Option{rtle.WithAttempts(3)},
			only("TLE", "RW-TLE", "FG-TLE", "FG-TLE(adaptive)", "ALE", "RHNOrec", "Mutex", "RWMutex")},
		{"WithAdaptiveAttempts", []rtle.Option{rtle.WithAdaptiveAttempts()},
			only("TLE", "RW-TLE", "FG-TLE", "FG-TLE(adaptive)", "ALE", "Mutex", "RWMutex")},
		{"WithLazySubscription", []rtle.Option{rtle.WithLazySubscription()},
			only("RW-TLE", "FG-TLE", "FG-TLE(adaptive)", "RWMutex")},
		{"WithOrecs", []rtle.Option{rtle.WithOrecs(64)}, only("FG-TLE", "ALE")},
	}
	for _, tc := range cases {
		for _, tg := range targets {
			t.Run(tc.name+"/"+tg.name, func(t *testing.T) {
				err := tg.build(tc.opts...)
				valid := tc.valid == nil || tc.valid[tg.name]
				if valid && err != nil {
					t.Fatalf("%s with %s rejected a valid option: %v", tg.name, tc.name, err)
				}
				if !valid {
					if err == nil {
						t.Fatalf("%s accepted %s, which it ignores", tg.name, tc.name)
					}
					for _, name := range strings.Split(tc.name, "+") {
						if !strings.Contains(err.Error(), name) {
							t.Fatalf("error %q does not name the offending option %s", err, name)
						}
					}
				}
			})
		}
	}
}

// TestGuardsScopedLikeTheirAlgorithm checks every optionScope row against
// the guards: NewMutex accepts an option exactly when New(TLE) does, and
// NewRWMutex exactly when New(RWTLE) does.
func TestGuardsScopedLikeTheirAlgorithm(t *testing.T) {
	opts := map[string]rtle.Option{
		"WithAttempts":         rtle.WithAttempts(3),
		"WithAdaptiveAttempts": rtle.WithAdaptiveAttempts(),
		"WithLazySubscription": rtle.WithLazySubscription(),
		"WithOrecs":            rtle.WithOrecs(64),
	}
	small := rtle.WithMemoryWords(1 << 12)
	for name := range rtle.OptionScope {
		opt, ok := opts[name]
		if !ok {
			t.Errorf("optionScope row %s has no option to try here", name)
			continue
		}
		_, tleErr := rtle.New(rtle.TLE, small, opt)
		_, mutexErr := rtle.NewMutex(small, opt)
		if (tleErr == nil) != (mutexErr == nil) {
			t.Errorf("%s: New(TLE) error %v, NewMutex error %v; want both or neither", name, tleErr, mutexErr)
		}
		_, rwtleErr := rtle.New(rtle.RWTLE, small, opt)
		_, rwmutexErr := rtle.NewRWMutex(small, opt)
		if (rwtleErr == nil) != (rwmutexErr == nil) {
			t.Errorf("%s: New(RWTLE) error %v, NewRWMutex error %v; want both or neither", name, rwtleErr, rwmutexErr)
		}
	}
}

// TestNewValidation checks that New reports configuration errors instead
// of panicking, each under the package's "rtle:" prefix.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		what string
		alg  rtle.Algorithm
		opts []rtle.Option
	}{
		{"a non-power-of-two orec count", rtle.FGTLE, []rtle.Option{rtle.WithOrecs(3)}},
		{"a zero orec count", rtle.ALE, []rtle.Option{rtle.WithOrecs(0)}},
		{"an unknown algorithm", rtle.Algorithm(99), nil},
	} {
		_, err := rtle.New(tc.alg, tc.opts...)
		if err == nil {
			t.Errorf("New accepted %s", tc.what)
		} else if !strings.HasPrefix(err.Error(), "rtle: ") {
			t.Errorf("New's error for %s lacks the rtle: prefix: %v", tc.what, err)
		}
	}
	if _, err := rtle.New(rtle.TLE, rtle.WithMemoryWords(-1)); err == nil {
		t.Error("New accepted a negative memory size")
	}
	if _, err := rtle.NewMutex(rtle.WithMemoryWords(-1)); err == nil {
		t.Error("NewMutex accepted a negative memory size")
	}
}

// TestWithMemorySharing checks that two methods can share one heap.
func TestWithMemorySharing(t *testing.T) {
	m := rtle.NewMemory(1 << 16)
	tm1 := rtle.MustNew(rtle.TLE, rtle.WithMemory(m))
	tm2 := rtle.MustNew(rtle.RWTLE, rtle.WithMemory(m))
	if tm1.Memory() != m || tm2.Memory() != m {
		t.Fatal("WithMemory did not share the heap")
	}
	a := m.AllocLines(1)
	th := tm1.NewThread()
	th.Atomic(func(c rtle.Context) { c.Write(a, 7) })
	th2 := tm2.NewThread()
	var got uint64
	th2.Atomic(func(c rtle.Context) { got = c.Read(a) })
	if got != 7 {
		t.Fatalf("read %d through second method, want 7", got)
	}
}

// TestWithObserver checks the registry wiring end to end through the
// public API: live snapshots agree with the quiescent stats.
func TestWithObserver(t *testing.T) {
	reg := rtle.NewRegistry()
	tm := rtle.MustNew(rtle.FGTLE,
		rtle.WithMemoryWords(1<<16),
		rtle.WithOrecs(64),
		rtle.WithObserver(reg))
	counter := tm.Memory().AllocLines(1)
	th := tm.NewThread()
	for i := 0; i < 100; i++ {
		th.Atomic(func(c rtle.Context) {
			c.Write(counter, c.Read(counter)+1)
		})
	}
	snap := reg.Snapshot()
	if snap.Stats != *th.Stats() {
		t.Errorf("snapshot %+v != thread stats %+v", snap.Stats, *th.Stats())
	}
	if snap.Stats.Ops != 100 {
		t.Errorf("observed %d ops, want 100", snap.Stats.Ops)
	}
	if snap.Latency[rtle.PathFast].Count+snap.Latency[rtle.PathSlow].Count+
		snap.Latency[rtle.PathLock].Count+snap.Latency[rtle.PathSTM].Count != (100+15)/16 {
		t.Error("latency histograms do not hold one sample per 16 ops")
	}
}

// TestAdaptiveMethodAssert checks the documented type-assertion route to
// algorithm-specific probes.
func TestAdaptiveMethodAssert(t *testing.T) {
	tm := rtle.MustNew(rtle.AdaptiveFGTLE, rtle.WithMemoryWords(1<<16))
	meth, ok := tm.Method().(*rtle.AdaptiveMethod)
	if !ok {
		t.Fatalf("Method() is %T, want *rtle.AdaptiveMethod", tm.Method())
	}
	if meth.CurrentOrecs() != 8192 {
		t.Errorf("CurrentOrecs = %d, want the shipped start of 8192", meth.CurrentOrecs())
	}
}

// TestAlgorithmString pins the evaluation-legend names.
func TestAlgorithmString(t *testing.T) {
	want := map[rtle.Algorithm]string{
		rtle.Lock: "Lock", rtle.TLE: "TLE", rtle.HLE: "HLE",
		rtle.RWTLE: "RW-TLE", rtle.FGTLE: "FG-TLE",
		rtle.AdaptiveFGTLE: "FG-TLE(adaptive)", rtle.ALE: "ALE",
		rtle.NOrec: "NOrec", rtle.RHNOrec: "RHNOrec",
	}
	for alg, name := range want {
		if alg.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(alg), alg.String(), name)
		}
	}
	if !strings.HasPrefix(rtle.Algorithm(42).String(), "Algorithm(") {
		t.Errorf("unknown algorithm String() = %q", rtle.Algorithm(42).String())
	}
}

// TestTMName checks names flow through from the constructed methods.
func TestTMName(t *testing.T) {
	if got := rtle.MustNew(rtle.FGTLE, rtle.WithMemoryWords(1<<14), rtle.WithOrecs(128)).Name(); got != "FG-TLE(128)" {
		t.Errorf("Name() = %q, want FG-TLE(128)", got)
	}
}
