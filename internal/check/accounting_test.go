package check

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rtle/internal/core"
	"rtle/internal/guard"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
)

// pathCounts is the per-path accounting one section leaves behind.
type pathCounts struct {
	FastAttempts, FastAborts, SubscriptionAborts, FastCommits uint64
	SlowAttempts, SlowAborts, SlowCommits                     uint64
	LockRuns                                                  uint64
}

func countsOf(s core.Stats) pathCounts {
	c := pathCounts{
		FastAttempts: s.FastAttempts, SubscriptionAborts: s.SubscriptionAborts, FastCommits: s.FastCommits,
		SlowAttempts: s.SlowAttempts, SlowCommits: s.SlowCommits, LockRuns: s.LockRuns,
	}
	for i := range s.FastAborts {
		c.FastAborts += s.FastAborts[i]
		c.SlowAborts += s.SlowAborts[i]
	}
	return c
}

// elider is one way into Figure 1's loop: a method's Thread or a guard's
// entry point, with the means to sit in its lock from outside.
type elider struct {
	run     func(body func(core.Context))
	hold    func()
	release func()
	// stats are the section's counters; a guard's exclude the bracket
	// section that played the holder.
	stats func() core.Stats
}

// behaviour groups the entry points by what Figure 1 makes them do.
type behaviour int

const (
	waits    behaviour = iota // no slow path: TLE and the two Do forms
	refined                   // commits on the slow path beside a holder
	hardware                  // HLE: one attempt, no look at the lock first
)

const conformanceBudget = 3

// conformanceEntries lists every instantiation of the two loops.
var conformanceEntries = []struct {
	name  string
	class behaviour
}{
	{"TLE", waits},
	{"HLE", hardware},
	{"RW-TLE", refined},
	{"FG-TLE(16)", refined},
	{"FG-TLE(adaptive)", refined},
	{"Mutex.Do", waits},
	{"RWMutex.Do", waits},
	{"RWMutex.RDo", refined},
}

func buildElider(t *testing.T, name string, m *mem.Memory, p core.Policy) elider {
	t.Helper()
	bracket := func(g interface {
		Lock()
		Unlock()
		Stats() core.Stats
	}, run func(func(core.Context))) elider {
		held := uint64(0)
		return elider{
			run:     run,
			hold:    func() { g.Lock(); held++ },
			release: g.Unlock,
			stats: func() core.Stats {
				s := g.Stats()
				s.LockRuns -= held
				s.Ops -= held
				return s
			},
		}
	}
	switch name {
	case "Mutex.Do":
		g := guard.NewMutex(m, p)
		return bracket(g, g.Do)
	case "RWMutex.Do":
		g := guard.NewRWMutex(m, p)
		return bracket(g, g.Do)
	case "RWMutex.RDo":
		g := guard.NewRWMutex(m, p)
		return bracket(g, g.RDo)
	}
	method, err := harness.BuildMethod(name, m, p)
	if err != nil {
		t.Fatal(err)
	}
	lock := method.(interface{ Lock() *spinlock.Lock }).Lock()
	th := method.NewThread()
	return elider{
		run:     th.Atomic,
		hold:    lock.Acquire,
		release: lock.Release,
		stats:   func() core.Stats { return *th.Stats() },
	}
}

// waitInFrame waits until some goroutine's stack holds a call of fn.
func waitInFrame(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(fn)) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s", fn)
}

// TestAccountingConformance runs the same scripted sections through every
// instantiation of Figure 1's loop — the five elision methods (one loop in
// internal/core) and the three guard entry points (one loop in
// internal/guard) — and requires the per-path accounting the table states.
// Entries of one behaviour class must agree to the counter; the classes
// differ only where the paper says the algorithms do.
func TestAccountingConformance(t *testing.T) {
	const budget = conformanceBudget
	scenarios := []struct {
		name string
		// aborts is how many hardware executions of the body hit an
		// HTM-unfriendly instruction before one is allowed through; -1
		// means every one.
		aborts int
		// held runs the section while another party sits in the lock
		// without writing.
		held bool
		want map[behaviour]pathCounts
	}{
		{"commits first try", 0, false, map[behaviour]pathCounts{
			waits:    {FastAttempts: 1, FastCommits: 1},
			refined:  {FastAttempts: 1, FastCommits: 1},
			hardware: {FastAttempts: 1, FastCommits: 1},
		}},
		{"aborts twice then commits", 2, false, map[behaviour]pathCounts{
			waits:    {FastAttempts: 3, FastAborts: 2, FastCommits: 1},
			refined:  {FastAttempts: 3, FastAborts: 2, FastCommits: 1},
			hardware: {FastAttempts: 1, FastAborts: 1, LockRuns: 1},
		}},
		{"exhausts the budget", -1, false, map[behaviour]pathCounts{
			waits:    {FastAttempts: budget, FastAborts: budget, LockRuns: 1},
			refined:  {FastAttempts: budget, FastAborts: budget, LockRuns: 1},
			hardware: {FastAttempts: 1, FastAborts: 1, LockRuns: 1},
		}},
		{"beside a holder", 0, true, map[behaviour]pathCounts{
			// Waits out the holder, then elides: never a doomed attempt.
			waits: {FastAttempts: 1, FastCommits: 1},
			// Completes while the holder is still in the lock.
			refined: {SlowAttempts: 1, SlowCommits: 1},
			// Begins regardless, aborts on the subscription, queues up.
			hardware: {FastAttempts: 1, FastAborts: 1, SubscriptionAborts: 1, LockRuns: 1},
		}},
	}
	for _, e := range conformanceEntries {
		for _, sc := range scenarios {
			t.Run(e.name+"/"+sc.name, func(t *testing.T) {
				m := mem.New(1 << 16)
				el := buildElider(t, e.name, m, core.Policy{Attempts: budget})
				word := m.AllocLines(1)
				m.Store(word, 42)

				executions, got := 0, uint64(0)
				body := func(c core.Context) {
					if c.InHTM() && (sc.aborts < 0 || executions < sc.aborts) {
						executions++
						c.Unsupported()
					}
					got = c.Read(word)
				}
				switch {
				case !sc.held:
					el.run(body)
				case e.class == refined:
					// Same goroutine: the section must finish beside the
					// holder or the test hangs.
					el.hold()
					el.run(body)
					el.release()
				default:
					el.hold()
					done := make(chan struct{})
					go func() {
						defer close(done)
						el.run(body)
					}()
					if e.class == hardware {
						// Release only once the doomed attempt has aborted
						// and the section queues for the lock.
						waitInFrame(t, "spinlock.(*Lock).Acquire")
					} else {
						// A waiter shows nothing while it waits; give it
						// time to reach the lock. The counts hold either way.
						time.Sleep(time.Millisecond)
					}
					el.release()
					<-done
				}
				if got != 42 {
					t.Fatalf("section read %d, want 42", got)
				}
				s := el.stats()
				if s.Ops != 1 {
					t.Errorf("Ops = %d, want 1", s.Ops)
				}
				if c, want := countsOf(s), sc.want[e.class]; c != want {
					t.Errorf("accounting\n got  %+v\n want %+v", c, want)
				}
			})
		}
	}
}

// TestSoftwareSectionConformance runs one scripted body through the two
// methods that run NOrec's software transaction — NOrec itself, and RHNOrec
// with a hardware path that can never commit it — and requires the same
// software accounting from both: they embed one transaction (norec.Tx) and
// may differ only in how a writing attempt commits. The script: read a; a
// second thread commits a write to a; read b, which notices the moved
// timestamp, revalidates by value and aborts; the re-execution reads both
// undisturbed and writes c.
func TestSoftwareSectionConformance(t *testing.T) {
	type stmCounts struct{ STMStarts, STMAborts, Validations, RO, ViaHTM, ViaLock uint64 }
	for name, commit := range map[string]stmCounts{
		"NOrec":   {ViaLock: 1}, // takes the sequence lock
		"RHNOrec": {ViaHTM: 1},  // the reduced hardware transaction
	} {
		t.Run(name, func(t *testing.T) {
			m := mem.New(1 << 16)
			method, err := harness.BuildMethod(name, m, core.Policy{Attempts: conformanceBudget})
			if err != nil {
				t.Fatal(err)
			}
			a, b, c := m.AllocLines(1), m.AllocLines(1), m.AllocLines(1)
			th, other := method.NewThread(), method.NewThread()
			software := 0
			th.Atomic(func(ctx core.Context) {
				if ctx.InHTM() {
					ctx.Unsupported() // no hardware attempt survives
				}
				software++
				va := ctx.Read(a)
				if software == 1 {
					other.Atomic(func(o core.Context) { o.Write(a, 7) })
				}
				ctx.Write(c, va+ctx.Read(b)+1)
			})
			if got := m.Load(c); got != 8 {
				t.Fatalf("c = %d, want 8: the committed execution must have read the interfering write", got)
			}
			s := th.Stats()
			want := commit
			want.STMStarts, want.STMAborts, want.Validations = 2, 1, 1
			got := stmCounts{s.STMStarts, s.STMAborts, s.Validations, s.STMCommitsRO, s.STMCommitsHTM, s.STMCommitsLock}
			if s.Ops != 1 || got != want {
				t.Errorf("Ops = %d, software accounting\n got  %+v\n want %+v", s.Ops, got, want)
			}
		})
	}
}

// TestTurnedAwayWriterAccounting pins what a slow-path writer that meets a
// readers-only FG-TLE section costs in the books: one slow attempt and one
// Explicit slow abort — RW-TLE's entry for the same event — never a fast
// attempt, and nothing against the attempt budget. The budget here is one:
// had the turned-away attempt been charged, the section would go on to take
// the lock instead of committing its single fast attempt.
func TestTurnedAwayWriterAccounting(t *testing.T) {
	m := mem.New(1 << 16)
	method, err := harness.BuildMethod("FG-TLE(16)", m, core.Policy{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	lock := method.(interface{ Lock() *spinlock.Lock }).Lock()
	word := m.AllocLines(1)
	holder, writer := method.NewThread(), method.NewThread()
	// 64 lock sections beside no slow-path writer, and the holder stops
	// stamping r-orecs: the 65th flips the mode word.
	for i := 0; i < 65; i++ {
		holder.Atomic(func(c core.Context) {
			c.Unsupported()
			c.Read(word)
		})
	}
	if s := holder.Stats(); s.LockRuns != 65 || s.ModeSwitches != 1 {
		t.Fatalf("staging: %d lock runs, %d mode switches; want 65 and the one flip to readers-only", s.LockRuns, s.ModeSwitches)
	}

	// The writer finds the lock held and starts a slow attempt; the "holder"
	// leaves before the attempt's write, which still meets the readers-only
	// mode word — only the next holder changes it — and is turned away. With
	// the lock free, the retry is an ordinary fast attempt.
	lock.Acquire()
	held := true
	writer.Atomic(func(c core.Context) {
		if held {
			held = false
			lock.Release()
		}
		c.Write(word, 7)
	})
	if got := m.Load(word); got != 7 {
		t.Fatalf("word = %d, want 7", got)
	}
	s := *writer.Stats()
	want := pathCounts{SlowAttempts: 1, SlowAborts: 1, FastAttempts: 1, FastCommits: 1}
	if c := countsOf(s); c != want || s.SlowAborts[htm.Explicit] != 1 || s.Ops != 1 {
		t.Errorf("accounting (Ops %d, Explicit slow aborts %d)\n got  %+v\n want %+v", s.Ops, s.SlowAborts[htm.Explicit], c, want)
	}
}
