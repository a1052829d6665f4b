// Tests for the public guard API surface.
package rtle_test

import (
	"strings"
	"sync"
	"testing"

	"rtle"
)

// TestGuardMutexPublic drives the public Mutex from several goroutines
// through both forms.
func TestGuardMutexPublic(t *testing.T) {
	g, err := rtle.NewMutex(rtle.WithMemoryWords(1<<16), rtle.WithAttempts(4))
	if err != nil {
		t.Fatal(err)
	}
	counter := g.Memory().AllocLines(1)

	const goroutines, opsEach = 4, 250
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				if j%8 == 0 {
					g.Lock()
					c := g.Ctx()
					c.Write(counter, c.Read(counter)+1)
					g.Unlock()
				} else {
					g.Do(func(c rtle.Context) {
						c.Write(counter, c.Read(counter)+1)
					})
				}
			}
		}(i)
	}
	wg.Wait()
	if got := g.Memory().Load(counter); got != goroutines*opsEach {
		t.Fatalf("counter = %d, want %d", got, goroutines*opsEach)
	}
	if s := g.Stats(); s.Ops != goroutines*opsEach {
		t.Fatalf("Stats.Ops = %d, want %d", s.Ops, goroutines*opsEach)
	}
}

// TestGuardOptionValidation pins the guard constructors' configuration
// errors.
func TestGuardOptionValidation(t *testing.T) {
	if _, err := rtle.NewMutex(rtle.WithLazySubscription()); err == nil ||
		!strings.Contains(err.Error(), "WithLazySubscription") {
		t.Errorf("NewMutex accepted lazy subscription (err = %v)", err)
	}
	if _, err := rtle.NewRWMutex(rtle.WithLazySubscription()); err != nil {
		t.Errorf("NewRWMutex rejected lazy subscription: %v", err)
	}
	if _, err := rtle.NewMutex(rtle.WithMemoryWords(-1)); err == nil {
		t.Error("NewMutex accepted a negative memory size")
	}
	if _, err := rtle.NewMutex(
		rtle.WithMemory(rtle.NewMemory(1<<12)),
		rtle.WithMemoryWords(1<<12)); err == nil {
		t.Error("NewMutex accepted WithMemory + WithMemoryWords")
	}
}

// TestGuardObserver checks the registry wiring through the guard path.
func TestGuardObserver(t *testing.T) {
	reg := rtle.NewRegistry()
	g := rtle.MustNewRWMutex(rtle.WithMemoryWords(1<<14), rtle.WithObserver(reg))
	word := g.Memory().AllocLines(1)
	for i := 0; i < 60; i++ {
		g.Do(func(c rtle.Context) { c.Write(word, c.Read(word)+1) })
		g.RDo(func(c rtle.Context) { _ = c.Read(word) })
	}
	snap := reg.Snapshot()
	if snap.Stats.Ops != 120 {
		t.Fatalf("observer saw %d ops, want 120", snap.Stats.Ops)
	}
	if s := g.Stats(); s != snap.Stats {
		t.Errorf("snapshot %+v != guard stats %+v", snap.Stats, s)
	}
}

// TestTMGuards checks guards built from a TM share its heap and policy,
// with options applied on top.
func TestTMGuards(t *testing.T) {
	reg := rtle.NewRegistry()
	tm := rtle.MustNew(rtle.TLE, rtle.WithMemoryWords(1<<14), rtle.WithAttempts(4), rtle.WithObserver(reg))
	g, err := tm.NewMutex()
	if err != nil {
		t.Fatal(err)
	}
	if g.Memory() != tm.Memory() {
		t.Fatal("TM.NewMutex did not share the TM heap")
	}
	word := tm.Memory().AllocLines(1)
	g.Do(func(c rtle.Context) { c.Write(word, 9) })
	var got uint64
	th := tm.NewThread()
	th.Atomic(func(c rtle.Context) { got = c.Read(word) })
	if got != 9 {
		t.Fatalf("thread read %d through shared heap, want 9", got)
	}
	rw, err := tm.NewRWMutex(rtle.WithRetreat(rtle.GuardRetreatConfig{Disable: true}))
	if err != nil {
		t.Fatal(err)
	}
	if rw.Memory() != tm.Memory() {
		t.Fatal("TM.NewRWMutex did not share the TM heap")
	}
	rw.RDo(func(c rtle.Context) { _ = c.Read(word) })
	if ops := reg.Snapshot().Stats.Ops; ops != 3 {
		t.Fatalf("the TM's observer saw %d ops, want 3: a guard did not share the policy", ops)
	}
	if _, err := tm.NewMutex(rtle.WithMemoryWords(1 << 12)); err == nil ||
		!strings.Contains(err.Error(), "WithMemoryWords") {
		t.Errorf("TM.NewMutex accepted a heap size beside the TM's heap (err = %v)", err)
	}
}
