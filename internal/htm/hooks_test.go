package htm

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"rtle/internal/mem"
)

// Read and Write run the per-access hooks only on a Tx that NewTx found to
// have one. These tests configure each hook alone — the case where a gate
// computed from the wrong fields would silently drop it — and check that a
// Tx with none behaves like one whose hooks all pass.

type access struct {
	nth   int
	write bool
}

// recordingInjector passes every hook and logs what TxAccess was told.
type recordingInjector struct{ seen []access }

func (*recordingInjector) TxBegin() (int, int, AbortReason) { return 0, 0, None }
func (*recordingInjector) TxPreCommit() AbortReason         { return None }
func (in *recordingInjector) TxAccess(nth int, write bool) AbortReason {
	in.seen = append(in.seen, access{nth, write})
	return None
}

// mixedBody reads and writes two lines in an order that covers a first
// read, a write, a read served from the write buffer and a repeat line.
func mixedBody(a, b mem.Addr) func(*Tx) {
	return func(tx *Tx) {
		v := tx.Read(a)
		tx.Write(a, v+1)
		w := tx.Read(b)
		tx.Read(a)
		tx.Write(b, w+v+1)
	}
}

var mixedBodyAccesses = []access{{1, false}, {2, true}, {3, false}, {4, false}, {5, true}}

func TestHookedIsResolvedAtNewTx(t *testing.T) {
	m := mem.New(1 << 12)
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"none", Config{}, false},
		{"limits only", Config{ReadLines: 4, WriteLines: 2}, false},
		{"NewInjector", Config{NewInjector: func() Injector { return &recordingInjector{} }}, true},
		{"InterleaveEvery", Config{InterleaveEvery: 3}, true},
	} {
		if got := NewTx(m, tc.cfg).hooked; got != tc.want {
			t.Errorf("%s: hooked = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOnlyInjectorSeesEveryAccess(t *testing.T) {
	m := mem.New(1 << 12)
	a, b := m.AllocLines(1), m.AllocLines(1)
	in := &recordingInjector{}
	tx := NewTx(m, Config{NewInjector: func() Injector { return in }})
	for attempt := 0; attempt < 3; attempt++ {
		in.seen = in.seen[:0]
		if r := tx.Run(mixedBody(a, b)); r != None {
			t.Fatalf("attempt %d aborted: %v", attempt, r)
		}
		if !slices.Equal(in.seen, mixedBodyAccesses) {
			t.Fatalf("attempt %d: TxAccess saw %v, want %v (nth restarts at 1 each attempt)", attempt, in.seen, mixedBodyAccesses)
		}
	}
}

// TestOnlyInterleaveEveryYieldsOnReadAndWrite checks the yield itself, on
// one P so that a yield is the only way the second goroutine can run. Not
// every yield reaches it: Gosched puts the caller on the global run queue,
// which the scheduler polls first on every 61st tick, so about one yield in
// 61 hands the P straight back. Over a few hundred accesses of each kind
// the other goroutine's counter must advance at least half as often with
// InterleaveEvery 1, and not at all with 0.
func TestOnlyInterleaveEveryYieldsOnReadAndWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := mem.New(1 << 12)
	a := m.AllocLines(1)
	var ticks atomic.Int64
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			ticks.Add(1)
			runtime.Gosched()
		}
	}()
	defer func() {
		stop.Store(true)
		<-done
	}()
	const accesses = 200
	// advanced returns how far the other goroutine got across one
	// transaction's reads and across its writes.
	advanced := func(every int) (reads, writes int64) {
		tx := NewTx(m, Config{InterleaveEvery: every})
		// Start on a fresh time slice, so that the runtime's own preemption
		// of a long-running goroutine stays out of the hook-free count.
		runtime.Gosched()
		if r := tx.Run(func(tx *Tx) {
			t0 := ticks.Load()
			for i := 0; i < accesses; i++ {
				tx.Read(a)
			}
			t1 := ticks.Load()
			for i := 0; i < accesses; i++ {
				tx.Write(a, uint64(i))
			}
			reads, writes = t1-t0, ticks.Load()-t1
		}); r != None {
			t.Fatalf("InterleaveEvery %d: aborted: %v", every, r)
		}
		return reads, writes
	}
	if r, w := advanced(0); r != 0 || w != 0 {
		t.Errorf("InterleaveEvery 0: the other goroutine ran %d times across the reads and %d across the writes; nothing should yield", r, w)
	}
	if r, w := advanced(1); r < accesses/2 || w < accesses/2 {
		t.Errorf("InterleaveEvery 1: the other goroutine ran %d times across %d reads and %d across %[2]d writes; an access kind does not yield", r, accesses, w)
	}
}

// TestHookFreeTxMatchesPassingHooks runs the same bodies — commits, an
// explicit abort, a capacity abort — on a Tx with no hook and on one with
// both installed but never firing, and requires identical outcomes, injected
// marks and heap contents.
func TestHookFreeTxMatchesPassingHooks(t *testing.T) {
	passing := Config{
		WriteLines:      2,
		NewInjector:     func() Injector { return &recordingInjector{} },
		InterleaveEvery: 2,
	}
	run := func(cfg Config) ([]AbortReason, []bool, []uint64) {
		m := mem.New(1 << 12)
		a, b, c := m.AllocLines(1), m.AllocLines(1), m.AllocLines(1)
		tx := NewTx(m, cfg)
		var reasons []AbortReason
		var injected []bool
		record := func(r AbortReason) {
			reasons = append(reasons, r)
			injected = append(injected, tx.LastAbortInjected())
		}
		for i := 0; i < 4; i++ {
			record(tx.Run(mixedBody(a, b)))
		}
		record(tx.Run(func(tx *Tx) {
			tx.Write(a, 99)
			tx.Abort()
		}))
		record(tx.Run(func(tx *Tx) {
			tx.Write(a, 1)
			tx.Write(b, 2)
			tx.Write(c, 3) // third line: over WriteLines
		}))
		return reasons, injected, []uint64{m.Load(a), m.Load(b), m.Load(c)}
	}
	freeReasons, freeInjected, freeHeap := run(Config{WriteLines: 2})
	hookReasons, hookInjected, hookHeap := run(passing)
	want := []AbortReason{None, None, None, None, Explicit, Capacity}
	if !slices.Equal(freeReasons, want) {
		t.Fatalf("hook-free outcomes %v, want %v", freeReasons, want)
	}
	if slices.Contains(freeInjected, true) {
		t.Fatalf("a hook-free run reported an injected abort: %v", freeInjected)
	}
	if !slices.Equal(hookReasons, freeReasons) || !slices.Equal(hookInjected, freeInjected) || !slices.Equal(hookHeap, freeHeap) {
		t.Fatalf("hook-free and passing-hook runs differ:\n free: %v %v %v\n hook: %v %v %v",
			freeReasons, freeInjected, freeHeap, hookReasons, hookInjected, hookHeap)
	}
}
