package check

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/guard"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// chaosSeeds returns the bounded seed list: CHAOS_SEEDS (a count) from the
// environment, else 1 under -short, else 2.
func chaosSeeds(t *testing.T) []uint64 {
	n := 2
	if testing.Short() {
		n = 1
	}
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad CHAOS_SEEDS %q", s)
		}
		n = v
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = 0xC0FFEE + uint64(i)*7919
	}
	return seeds
}

// chaosPlan derives a fault plan exercising every fault type from one seed.
func chaosPlan(seed uint64) fault.Plan {
	sm := rng.NewSplitMix64(seed)
	return fault.Plan{
		Seed:              sm.Next(),
		BeginProb:         0.02 + float64(sm.Next()%4)/100,
		AccessProb:        0.004,
		CommitProb:        0.02,
		Reason:            htm.Spurious,
		NthAccess:         int(3 + sm.Next()%8),
		NthEvery:          int(5 + sm.Next()%5),
		SqueezeEvery:      40,
		SqueezeLen:        4,
		SqueezeReadLines:  3,
		SqueezeWriteLines: 2,
		StormEvery:        int(30 + sm.Next()%30),
		StormLen:          3,
		LockSpikeEvery:    8,
		LockSpikeSpins:    200,
	}
}

// chaosMethods is the method roster the chaos suite and FuzzFaultPlan
// cover: every synchronization scheme in the repository.
var chaosMethods = []string{
	"Lock", "TLE", "HLE", "RW-TLE", "FG-TLE(256)", "FG-TLE(adaptive)",
	"ALE(256)", "NOrec", "RHNOrec",
}

// guardVariants names the guard types the chaos suite and FuzzFaultPlan
// drive through RunGuardWorkload.
var guardVariants = []string{"Guard(TLE)", "Guard(RW-TLE)"}

// faultTrial runs one recorded workload of kind under plan, through the
// named method or, for a "Guard(" name, the named guard variant, and
// checks the history for linearizability. It also reports how many faults
// the plan injected.
func faultTrial(plan fault.Plan, name, kind string, cfg RunConfig) (ok bool, injected uint64, err error) {
	d := fault.NewDirector(plan)
	policy := core.Policy{Attempts: 5, HTM: htm.Config{InterleaveEvery: 8}}
	d.Configure(&policy)
	m := mem.New(1 << 18)
	var (
		h     *History
		model Model
	)
	if strings.HasPrefix(name, "Guard(") {
		h, model, err = RunGuardWorkload(kind, name, m, guard.Config{Policy: policy}, cfg)
	} else {
		var method core.Method
		if method, err = harness.BuildMethod(name, m, policy); err != nil {
			return false, 0, err
		}
		h, model, err = RunWorkload(kind, method, m, cfg)
	}
	if err != nil {
		return false, 0, err
	}
	return CheckLinearizable(model, h.Events()), d.TotalInjected(), nil
}

// chaosSweep runs every name of roster over every ADT workload under the
// seeded chaos plans, and requires every history to linearize and the
// plans to have injected something.
func chaosSweep(t *testing.T, roster []string) {
	seeds := chaosSeeds(t)
	var injectedTotal uint64
	for _, name := range roster {
		for _, kind := range Workloads {
			for _, seed := range seeds {
				plan := chaosPlan(seed)
				ok, injected, err := faultTrial(plan, name, kind, RunConfig{
					Threads: 4, OpsPerThread: 120, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Errorf("%s over %s with plan %s: history NOT linearizable", name, kind, plan)
				}
				injectedTotal += injected
			}
		}
	}
	if injectedTotal == 0 {
		t.Fatal("chaos sweep injected no faults at all")
	}
	t.Logf("chaos sweep injected %d faults across %d runs",
		injectedTotal, len(roster)*len(Workloads)*len(seeds))
}

// TestChaosLinearizableUnderFaults runs every method over every ADT
// workload under seeded fault plans and checks each recorded history for
// linearizability. This is the end-to-end claim of the paper's algorithms:
// the critical sections stay atomic no matter how the hardware misbehaves.
func TestChaosLinearizableUnderFaults(t *testing.T) {
	chaosSweep(t, chaosMethods)
}

// planFromBytes maps any byte string to a fault plan whose every rule is
// bounded, so every fuzz input runs in bounded time. Byte i reads as 0
// past the end, and a fault family is off while its first byte is 0:
// cutting the tail, the first thing Go's minimizer tries, turns families
// off from the last one forward.
//
//	0 seed | 1 begin | 2 access | 3 commit | 4-5 nth access, every
//	6-9 squeeze every, len, read lines, write lines | 10-11 storm every, len
//	12-13 lock spike every, spins
func planFromBytes(b []byte) fault.Plan {
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		return 0
	}
	p := fault.Plan{Seed: uint64(at(0))}
	if v := at(1); v > 0 {
		p.BeginProb = float64(1+v%8) / 100
	}
	if v := at(2); v > 0 {
		p.AccessProb = float64(1+v%10) / 1000
	}
	if v := at(3); v > 0 {
		p.CommitProb = float64(1+v%6) / 100
	}
	if v := at(4); v > 0 {
		p.NthAccess, p.NthEvery = 2+v%10, 3+at(5)%6
	}
	if v := at(6); v > 0 {
		p.SqueezeEvery, p.SqueezeLen = 20+v%60, 1+at(7)%6
		p.SqueezeReadLines, p.SqueezeWriteLines = 2+at(8)%6, 1+at(9)%4
	}
	if v := at(10); v > 0 {
		p.StormEvery, p.StormLen = 20+v%60, 1+at(11)%5
	}
	if v := at(12); v > 0 {
		p.LockSpikeEvery, p.LockSpikeSpins = 4+v%12, 100+at(13)*3/2
	}
	return p
}

// FuzzFaultPlan runs one method or guard variant over one ADT workload
// under a fuzzed fault plan and checks the history for linearizability.
// roster indexes chaosMethods followed by guardVariants and adt indexes
// Workloads, both modulo the list's length. The seed corpus is every
// roster name over every ADT with every fault family on, and every roster
// name over the set with only the access family on at AccessProb 0.01, the
// plan cmd/experiments runs its figures under at its default -spurious; a
// failure prints the plan as JSON, the form rtled -fault-plan accepts.
func FuzzFaultPlan(f *testing.F) {
	names := append(append([]string(nil), chaosMethods...), guardVariants...)
	set := uint8(slices.Index(Workloads, "set"))
	for r := range names {
		for a := range Workloads {
			// A distinct seed byte, then every family on at magnitudes
			// close to chaosPlan's.
			f.Add([]byte{byte(r*len(Workloads) + a + 1), 2, 3, 1, 3, 3, 20, 3, 1, 1, 20, 2, 4, 67}, uint8(r), uint8(a))
		}
	}
	for r := range names {
		// The figure driver's plan at its default -spurious: the access
		// family alone, at AccessProb 0.01.
		f.Add([]byte{byte(100 + r), 0, 9}, uint8(r), set)
	}
	f.Fuzz(func(t *testing.T, b []byte, roster, adt uint8) {
		plan := planFromBytes(b)
		name, kind := names[int(roster)%len(names)], Workloads[int(adt)%len(Workloads)]
		ok, _, err := faultTrial(plan, name, kind, RunConfig{Threads: 4, OpsPerThread: 120, Seed: plan.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s over %s with plan %s: history NOT linearizable", name, kind, plan)
		}
	})
}

// TestChaosOpacityUnderFaults validates the raw HTM engine itself: under
// seeded fault plans, committed and aborted attempts alike must observe
// consistent states.
func TestChaosOpacityUnderFaults(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		plan := chaosPlan(seed)
		d := fault.NewDirector(plan)
		base, initial, recs := RunRawHTM(RawConfig{
			Threads: 4, Attempts: 400, Lines: 4, AccessesPerAttempt: 5, Seed: seed,
		}, htm.Config{NewInjector: d.NewInjector})
		if err := CheckOpacity(base, initial, recs); err != nil {
			t.Errorf("seed %d plan %s: opacity violated: %v", seed, plan, err)
		}
		if d.TotalInjected() == 0 {
			t.Errorf("seed %d: plan injected nothing over 1600 attempts", seed)
		}
	}
}

// --- Mutant detection -------------------------------------------------------

// lossyMethod is an intentionally broken test-only method: every Nth atomic
// block silently discards its writes. It exists to prove the checker has
// teeth — a recorder plus checker that cannot catch a method that lies
// about its commits would be worthless.
type lossyMethod struct {
	inner core.Method
	every int
}

func (m *lossyMethod) Name() string { return "Lossy(" + m.inner.Name() + ")" }
func (m *lossyMethod) NewThread() core.Thread {
	return &lossyThread{inner: m.inner.NewThread(), every: m.every}
}

type lossyThread struct {
	inner core.Thread
	every int
	n     int
}

func (t *lossyThread) Stats() *core.Stats { return t.inner.Stats() }

func (t *lossyThread) Atomic(body func(core.Context)) {
	t.n++
	if t.n%t.every != 0 {
		t.inner.Atomic(body)
		return
	}
	t.inner.Atomic(func(c core.Context) { body(dropWrites{c}) })
}

// dropWrites forwards reads and swallows writes.
type dropWrites struct{ core.Context }

func (d dropWrites) Write(mem.Addr, uint64) {}

// TestMutantLossyMethodCaught runs the bank workload single-threaded over
// the lossy mutant — fully deterministic — and requires the checker to
// reject the history, while the unbroken method over the identical workload
// passes.
func TestMutantLossyMethodCaught(t *testing.T) {
	run := func(mutate bool) bool {
		m := mem.New(1 << 16)
		var method core.Method = core.NewTLE(m, core.Policy{Attempts: 5})
		if mutate {
			method = &lossyMethod{inner: method, every: 3}
		}
		h, model, err := RunWorkload("bank", method, m, RunConfig{
			Threads: 1, OpsPerThread: 60, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return CheckLinearizable(model, h.Events())
	}
	if !run(false) {
		t.Fatal("unbroken method's history rejected")
	}
	if run(true) {
		t.Fatal("lossy mutant's history accepted: the checker has no teeth")
	}
}

// TestChaosReadersOnlyFlips drives FG-TLE's mode word both ways under the
// checker: paper Fig. 12's HTM-unfriendly updater, which ends every
// operation under the lock; one 20:20:60 thread whose slow-path writes the
// mode follows, working in seeded bursts and sleeping between them for
// longer than the holder keeps admitting writers nobody sends; and one
// Find-only thread, the slow path's steady customer. Both are paced by the
// updater's progress, so their operations are spread over its sections
// whatever the core count. Holder latency spikes and injected aborts come
// from the chaos plan. The recorded history must be linearizable, the tree a
// valid AVL tree, and the mode must really have moved, there and back.
func TestChaosReadersOnlyFlips(t *testing.T) {
	const (
		keys       = 32
		updates    = 1800
		others     = 300
		quietSpell = 80 // lock sections slept through: more than the 64 a holder waits before it stops admitting
	)
	for _, methodName := range []string{"FG-TLE(256)", "FG-TLE(adaptive)"} {
		var flips uint64
		for _, seed := range chaosSeeds(t) {
			plan := chaosPlan(seed)
			// Every other section is stretched to several of the others'
			// operations, so the lock is held most of the time and most of
			// what the other two threads do, they do beside a holder.
			plan.LockSpikeEvery, plan.LockSpikeSpins = 2, 4000
			d := fault.NewDirector(plan)
			policy := core.Policy{Attempts: 5, HTM: htm.Config{InterleaveEvery: 8}}
			d.Configure(&policy)
			m := mem.New(1 << 18)
			method, err := harness.BuildMethod(methodName, m, policy)
			if err != nil {
				t.Fatalf("%s: %v", methodName, err)
			}
			set := avl.New(m)
			threads := []core.Thread{method.NewThread(), method.NewThread(), method.NewThread()}
			h := NewHistory(len(threads))

			// sections is the updater's progress, negative once it is done;
			// sleep waits for n more of them.
			var sections, torn atomic.Int64
			sleep := func(n int64) {
				for from := sections.Load(); ; time.Sleep(10 * time.Microsecond) {
					if now := sections.Load(); now < 0 || now-from >= n {
						return
					}
				}
			}

			var wg sync.WaitGroup
			run := func(i int, worker func(th core.Thread, hd *avl.Handle, rec *ThreadRecorder, r *rng.Xoshiro256)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					worker(threads[i], set.NewHandle(), h.Recorder(i), rng.NewXoshiro256(seed+uint64(i)*0x9e3779b97f4a7c15+1))
				}()
			}
			run(0, func(th core.Thread, hd *avl.Handle, rec *ThreadRecorder, r *rng.Xoshiro256) {
				for i := 0; i < updates; i++ {
					key, insert := r.Uint64n(keys), r.Intn(2) == 0
					var res bool
					if insert {
						rec.Invoke(OpInsert, key, 0, 0)
					} else {
						rec.Invoke(OpRemove, key, 0, 0)
					}
					th.Atomic(func(c core.Context) {
						// Under the lock every other section counts the tree
						// twice, with a pause in between: the first count's
						// reads are the unstamped ones of a readers-only
						// section, and a slow-path write that got past them
						// shows as a disagreement.
						if !c.InHTM() && i%2 == 0 {
							size := set.Size(c)
							for spin := 0; spin < 2000; spin++ {
								if spin%500 == 499 {
									runtime.Gosched()
								}
							}
							if set.Size(c) != size {
								torn.Add(1)
							}
						}
						if insert {
							res = hd.InsertCS(c, key)
						} else {
							res = hd.RemoveCS(c, key)
						}
						c.Unsupported()
					})
					if insert {
						hd.AfterInsert(res)
					} else {
						hd.AfterRemove(res)
					}
					rec.Return(0, res)
					sections.Add(1)
				}
				sections.Store(-1)
			})
			run(1, func(th core.Thread, hd *avl.Handle, rec *ThreadRecorder, r *rng.Xoshiro256) {
				for i, burst := 0, 0; i < others; i, burst = i+1, burst-1 {
					if burst == 0 {
						burst = 8 + r.Intn(24)
						sleep(quietSpell)
					}
					sleep(1)
					key := r.Uint64n(keys)
					switch p := r.Intn(100); {
					case p < 20:
						rec.Invoke(OpInsert, key, 0, 0)
						rec.Return(0, hd.Insert(th, key))
					case p < 40:
						rec.Invoke(OpRemove, key, 0, 0)
						rec.Return(0, hd.Remove(th, key))
					default:
						rec.Invoke(OpContains, key, 0, 0)
						rec.Return(0, hd.Contains(th, key))
					}
				}
			})
			run(2, func(th core.Thread, hd *avl.Handle, rec *ThreadRecorder, r *rng.Xoshiro256) {
				for i := 0; i < others; i++ {
					sleep(updates / others / 2)
					key := r.Uint64n(keys)
					rec.Invoke(OpContains, key, 0, 0)
					rec.Return(0, hd.Contains(th, key))
				}
			})
			wg.Wait()

			if !CheckLinearizable(SetModel(), h.Events()) {
				t.Errorf("%s seed %d with plan %s: history NOT linearizable", methodName, seed, plan)
			}
			if err := set.CheckInvariants(core.Direct(m)); err != nil {
				t.Errorf("%s seed %d: AVL invariants broken: %v", methodName, seed, err)
			}
			if n := torn.Load(); n != 0 {
				t.Errorf("%s seed %d: %d lock sections saw the tree change under them", methodName, seed, n)
			}
			var total core.Stats
			for _, th := range threads {
				total.Merge(th.Stats())
			}
			if total.ModeSwitches == 0 {
				t.Errorf("%s seed %d: the mode never moved in %d lock sections", methodName, seed, total.LockRuns)
			}
			flips += total.ModeSwitches
			if d.LockSpins() == 0 {
				t.Errorf("%s seed %d: no holder latency spike was injected", methodName, seed)
			}
			t.Logf("%s seed %d: %d mode switches in %d lock sections, %d slow commits, %d holder spikes",
				methodName, seed, total.ModeSwitches, total.LockRuns, total.SlowCommits, d.LockSpins())
		}
		if flips < 2 {
			t.Errorf("%s: %d mode switches over all seeds, want the mode to leave and come back", methodName, flips)
		}
	}
}
