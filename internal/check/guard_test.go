package check

import (
	"sync"
	"testing"

	"rtle/internal/bank"
	"rtle/internal/core"
	"rtle/internal/guard"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// TestGuardWorkloadsLinearizable runs every ADT workload over both guard
// variants — closure and bracket forms mixed — and checks each recorded
// history for linearizability. This is the guard analogue of the method
// sweep: sync-shaped elision must be indistinguishable from a real lock.
func TestGuardWorkloadsLinearizable(t *testing.T) {
	for _, variant := range guardVariants {
		for _, kind := range Workloads {
			t.Run(variant+"/"+kind, func(t *testing.T) {
				m := mem.New(1 << 18)
				policy := core.Policy{Attempts: 5, HTM: htm.Config{InterleaveEvery: 4}}
				h, model, err := RunGuardWorkload(kind, variant, m, policy, RunConfig{
					Threads: 4, OpsPerThread: 150, Seed: 0xD1CE,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !CheckLinearizable(model, h.Events()) {
					t.Errorf("%s over %s: history NOT linearizable", variant, kind)
				}
			})
		}
	}
}

// TestGuardLinearizableUnderFaults repeats the sweep under seeded fault
// plans: spurious aborts, capacity squeezes, and lock-acquisition spikes
// must never let a guarded section observe or publish a torn state. The
// spikes stretch reader-held sections too (RDo's fallback and RLock fire
// the hook), so writers draining readers and write sections subscribed to
// the reader count meet a stalled reader here.
func TestGuardLinearizableUnderFaults(t *testing.T) {
	chaosSweep(t, guardVariants)
}

// TestGuardStressBankConservation is the -race stress: many goroutines
// hammer one bank through an RWMutex guard using all four forms at once,
// and the total balance must be conserved exactly. Unlike the workload
// sweep this drives the guard object directly, so it also covers the
// probe methods a recorded history cannot.
func TestGuardStressBankConservation(t *testing.T) {
	const (
		goroutines = 8
		opsEach    = 400
		accounts   = 8
	)
	m := mem.New(1 << 16)
	g := guard.NewRWMutex(m, core.Policy{Attempts: 4, HTM: htm.Config{InterleaveEvery: 4}})
	b := bank.New(m, accounts, BankInitial)

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewXoshiro256(0xBEEF + uint64(id))
			for j := 0; j < opsEach; j++ {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				amount := 1 + r.Uint64n(50)
				switch j % 4 {
				case 0:
					g.Do(func(c core.Context) { b.TransferCS(c, from, to, amount) })
				case 1:
					g.Lock()
					b.TransferCS(g.Ctx(), from, to, amount)
					g.Unlock()
				case 2:
					g.RDo(func(c core.Context) { _ = b.BalanceCS(c, from) })
				default:
					g.RLock()
					_ = b.BalanceCS(g.RCtx(), from)
					g.RUnlock()
				}
			}
		}(i)
	}
	wg.Wait()

	g.RLock()
	err := b.CheckConservation(g.RCtx(), accounts*BankInitial)
	g.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	// All four forms count as guard ops, plus the conservation check.
	if got := g.Stats().Ops; got != goroutines*opsEach+1 {
		t.Fatalf("Stats.Ops = %d, want %d", got, goroutines*opsEach+1)
	}
}
