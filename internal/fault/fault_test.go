package fault

import (
	"reflect"
	"sync"
	"testing"

	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{Seed: 42, BeginProb: 0.25, Reason: htm.Capacity},
		{Seed: 7, NthAccess: 3, NthEvery: 2, NthReason: htm.Spurious},
		{Seed: 9, SqueezeEvery: 10, SqueezeLen: 3, SqueezeReadLines: 4, SqueezeWriteLines: 2},
		{Seed: 1, StormEvery: 16, StormLen: 4, LockSpikeEvery: 5, LockSpikeSpins: 1000},
	}
	for _, p := range plans {
		got, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%s): %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip changed the plan: %s -> %s", p, got)
		}
	}
	if _, err := ParsePlan("{nonsense"); err == nil {
		t.Fatal("ParsePlan accepted malformed input")
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	d := NewDirector(Plan{Seed: 5})
	if inj := d.NewInjector(); inj != nil {
		t.Fatalf("inactive plan produced an injector: %v", inj)
	}
	m := mem.New(64)
	tx := htm.NewTx(m, htm.Config{NewInjector: d.NewInjector})
	a := m.Alloc(1)
	for i := 0; i < 100; i++ {
		if r := tx.Run(func(tx *htm.Tx) { tx.Write(a, tx.Read(a)+1) }); r != htm.None || tx.LastAbortInjected() {
			t.Fatalf("attempt %d: reason %v, injected %v", i, r, tx.LastAbortInjected())
		}
	}
	if n := d.TotalInjected(); n != 0 {
		t.Fatalf("zero plan injected %d faults", n)
	}
}

// TestAccessProbAbortsFirstAccess: at AccessProb 1 the abort lands on the
// first access itself, before it reads or buffers anything: the body does
// not continue and the heap is untouched.
func TestAccessProbAbortsFirstAccess(t *testing.T) {
	d := NewDirector(Plan{AccessProb: 1})
	m := mem.New(1 << 12)
	a := m.AllocLines(1)
	tx := htm.NewTx(m, htm.Config{NewInjector: d.NewInjector})
	for name, first := range map[string]func(*htm.Tx){
		"read":  func(tx *htm.Tx) { tx.Read(a) },
		"write": func(tx *htm.Tx) { tx.Write(a, 7) },
	} {
		reached := false
		r := tx.Run(func(tx *htm.Tx) {
			first(tx)
			reached = true
		})
		if r != htm.Spurious || reached || !tx.LastAbortInjected() {
			t.Errorf("first access a %s: reason %v, body continued = %v, injected = %v; want an injected spurious abort on the access itself",
				name, r, reached, tx.LastAbortInjected())
		}
	}
	if m.Load(a) != 0 {
		t.Fatalf("word = %d, want 0", m.Load(a))
	}
}

// TestDirectorInstallsOnlyWhatThePlanUses: a plan's unused families cost
// nothing. Without a window rule no attempt touches the shared attempt
// counter; without lock spikes Configure leaves Policy.LockFault unset; and
// a plan of lock spikes alone gives every Tx a nil injector, so its
// accesses run hook-free.
func TestDirectorInstallsOnlyWhatThePlanUses(t *testing.T) {
	d := NewDirector(Plan{Seed: 3, AccessProb: 0.01})
	var pol core.Policy
	d.Configure(&pol)
	if pol.LockFault != nil {
		t.Error("a plan without lock spikes installed the lock hook")
	}
	m := mem.New(1 << 12)
	a := m.AllocLines(1)
	tx := htm.NewTx(m, pol.HTM)
	spurious := 0
	for i := 0; i < 1000; i++ {
		if tx.Run(func(tx *htm.Tx) { tx.Read(a) }) == htm.Spurious {
			spurious++
		}
	}
	if n := d.attempts.Load(); n != 0 {
		t.Errorf("attempts = %d after 1000 attempts under a plan with no window rule, want 0", n)
	}
	if spurious == 0 {
		t.Error("AccessProb 0.01 aborted none of 1000 attempts")
	}

	spikes := NewDirector(Plan{Seed: 3, LockSpikeEvery: 4, LockSpikeSpins: 10})
	spikes.Configure(&pol)
	if pol.LockFault == nil {
		t.Error("a plan with lock spikes left the lock hook unset")
	}
	if inj := spikes.NewInjector(); inj != nil {
		t.Errorf("a plan of lock spikes alone built an injector: %v", inj)
	}
}

// runAborts executes attempts single-threaded and returns the per-attempt
// outcome sequence.
func runAborts(t *testing.T, plan Plan, attempts, accesses int) []htm.AbortReason {
	t.Helper()
	d := NewDirector(plan)
	m := mem.New(1 << 12)
	tx := htm.NewTx(m, htm.Config{NewInjector: d.NewInjector})
	base := m.AllocLines(accesses)
	out := make([]htm.AbortReason, 0, attempts)
	for i := 0; i < attempts; i++ {
		out = append(out, tx.Run(func(tx *htm.Tx) {
			for j := 0; j < accesses; j++ {
				tx.Read(base + mem.Addr(j*mem.WordsPerLine))
			}
		}))
	}
	return out
}

func TestProbabilisticFaultsDeterministic(t *testing.T) {
	plan := Plan{Seed: 1234, BeginProb: 0.2, AccessProb: 0.05, CommitProb: 0.1, Reason: htm.Spurious}
	a := runAborts(t, plan, 400, 8)
	b := runAborts(t, plan, 400, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan, same thread order: outcome sequences differ")
	}
	var injected int
	for _, r := range a {
		if r == htm.Spurious {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("probabilistic plan injected nothing in 400 attempts")
	}
	c := runAborts(t, Plan{Seed: 1235, BeginProb: 0.2, AccessProb: 0.05, CommitProb: 0.1}, 400, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical outcome sequences")
	}
}

func TestNthAccessRule(t *testing.T) {
	// Kill the 3rd access of every 2nd attempt.
	plan := Plan{Seed: 1, NthAccess: 3, NthEvery: 2, NthReason: htm.Conflict}
	out := runAborts(t, plan, 10, 8)
	for i, r := range out {
		attempt := i + 1 // injector counts attempts from 1
		want := htm.None
		if attempt%2 == 0 {
			want = htm.Conflict
		}
		if r != want {
			t.Fatalf("attempt %d: got %v, want %v", attempt, r, want)
		}
	}
	// With fewer accesses than NthAccess the rule never fires.
	for i, r := range runAborts(t, plan, 10, 2) {
		if r != htm.None {
			t.Fatalf("short attempt %d aborted: %v", i+1, r)
		}
	}
}

func TestStormWindows(t *testing.T) {
	plan := Plan{Seed: 1, StormEvery: 4, StormLen: 2}
	out := runAborts(t, plan, 20, 1)
	for i, r := range out {
		global := int64(i + 1) // single thread: global counter == attempt ordinal
		want := htm.None
		if int(global%4) < 2 {
			want = htm.Conflict
		}
		if r != want {
			t.Fatalf("attempt %d: got %v, want %v", global, r, want)
		}
	}
}

func TestCapacitySqueeze(t *testing.T) {
	// Squeeze every attempt down to 2 read lines; a 4-line read set
	// overflows only under the squeeze.
	plan := Plan{Seed: 1, SqueezeEvery: 1, SqueezeReadLines: 2}
	d := NewDirector(plan)
	m := mem.New(1 << 12)
	tx := htm.NewTx(m, htm.Config{ReadLines: 8, NewInjector: d.NewInjector})
	base := m.AllocLines(4)
	r := tx.Run(func(tx *htm.Tx) {
		for j := 0; j < 4; j++ {
			tx.Read(base + mem.Addr(j*mem.WordsPerLine))
		}
	})
	if r != htm.Capacity {
		t.Fatalf("squeezed attempt: got %v, want Capacity", r)
	}
	if !tx.LastAbortInjected() {
		t.Fatal("squeezed capacity abort not marked injected")
	}

	// The same footprint passes with no squeeze configured.
	d2 := NewDirector(Plan{Seed: 1, StormEvery: 1 << 30}) // active plan, windows never hit twice
	tx2 := htm.NewTx(m, htm.Config{ReadLines: 8, NewInjector: d2.NewInjector})
	r2 := tx2.Run(func(tx *htm.Tx) {
		for j := 0; j < 4; j++ {
			tx.Read(base + mem.Addr(j*mem.WordsPerLine))
		}
	})
	if r2 != htm.None {
		t.Fatalf("unsqueezed attempt aborted: %v", r2)
	}
}

func TestLockSpike(t *testing.T) {
	d := NewDirector(Plan{Seed: 1, LockSpikeEvery: 3, LockSpikeSpins: 50})
	for i := 0; i < 9; i++ {
		d.OnLockAcquired()
	}
	if got := d.LockSpins(); got != 3 {
		t.Fatalf("LockSpins = %d after 9 acquisitions at every=3, want 3", got)
	}
	// A spike-free plan must be a no-op (and not divide by zero).
	d2 := NewDirector(Plan{Seed: 1})
	d2.OnLockAcquired()
	if got := d2.LockSpins(); got != 0 {
		t.Fatalf("no-spike LockSpins = %d, want 0", got)
	}
}

// TestChaosConcurrentInjection drives many goroutines through every fault
// type at once under -race: progress must continue (all ops eventually
// commit via retry), counters must balance, and injected faults must
// actually occur. The CI chaos job selects this test by the Chaos name.
func TestChaosConcurrentInjection(t *testing.T) {
	plan := Plan{
		Seed:             99,
		BeginProb:        0.05,
		AccessProb:       0.01,
		CommitProb:       0.05,
		Reason:           htm.Spurious,
		NthAccess:        5,
		NthEvery:         7,
		SqueezeEvery:     50,
		SqueezeLen:       5,
		SqueezeReadLines: 2,
		StormEvery:       40,
		StormLen:         4,
		LockSpikeEvery:   10,
		LockSpikeSpins:   100,
	}
	d := NewDirector(plan)
	const threads, ops = 8, 300
	m := mem.New(1 << 16)
	base := m.AllocLines(8)

	// Each thread tallies what its Runs return, and which of those aborts
	// were injected.
	type tally struct {
		commits            int
		aborts, injections [htm.NumReasons]int
	}
	var wg sync.WaitGroup
	tallies := make([]tally, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			tx := htm.NewTx(m, htm.Config{NewInjector: d.NewInjector})
			for op := 0; op < ops; op++ {
				for {
					r := tx.Run(func(tx *htm.Tx) {
						a := base + mem.Addr((op%8)*mem.WordsPerLine)
						tx.Write(a, tx.Read(a)+1)
						for j := 0; j < 6; j++ {
							tx.Read(base + mem.Addr(j*mem.WordsPerLine))
						}
					})
					if r == htm.None {
						tallies[th].commits++
						break
					}
					tallies[th].aborts[r]++
					if tx.LastAbortInjected() {
						tallies[th].injections[r]++
					}
					// Model the fallback-lock acquisition so lock
					// spikes fire too.
					d.OnLockAcquired()
				}
			}
		}(th)
	}
	wg.Wait()

	var total tally
	for _, th := range tallies {
		total.commits += th.commits
		for r := range total.aborts {
			total.aborts[r] += th.aborts[r]
			total.injections[r] += th.injections[r]
		}
	}
	if total.commits != threads*ops {
		t.Fatalf("commits = %d, want %d", total.commits, threads*ops)
	}
	injected := 0
	for r := range total.aborts {
		if total.injections[r] > total.aborts[r] {
			t.Fatalf("%v: injected %d exceeds its %d aborts", htm.AbortReason(r), total.injections[r], total.aborts[r])
		}
		injected += total.injections[r]
	}
	if injected == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	if d.TotalInjected() == 0 {
		t.Fatal("director live counter saw no injected faults")
	}
	if total.injections[htm.Spurious] == 0 || total.injections[htm.Conflict] == 0 {
		t.Fatalf("expected both spurious and conflict injections, got %v", total.injections)
	}
}
