package bank

import (
	"sync"
	"testing"
	"testing/quick"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func TestInitialBalances(t *testing.T) {
	m := mem.New(1 << 14)
	b := New(m, 8, 100)
	c := core.Direct(m)
	if got := b.Total(c); got != 800 {
		t.Fatalf("total = %d, want 800", got)
	}
	for i := 0; i < 8; i++ {
		if got := b.BalanceCS(c, i); got != 100 {
			t.Fatalf("account %d = %d, want 100", i, got)
		}
	}
}

func TestAccountsPadded(t *testing.T) {
	m := mem.New(1 << 14)
	b := New(m, 4, 1)
	for i := 1; i < 4; i++ {
		if mem.LineOf(b.addr(i)) == mem.LineOf(b.addr(i-1)) {
			t.Fatalf("accounts %d and %d share a cache line", i-1, i)
		}
	}
}

func TestTransferMovesMoney(t *testing.T) {
	m := mem.New(1 << 14)
	b := New(m, 4, 100)
	c := core.Direct(m)
	moved := b.TransferCS(c, 0, 1, 30)
	if moved != 30 {
		t.Fatalf("moved %d, want 30", moved)
	}
	if b.BalanceCS(c, 0) != 70 || b.BalanceCS(c, 1) != 130 {
		t.Fatalf("balances %d/%d, want 70/130", b.BalanceCS(c, 0), b.BalanceCS(c, 1))
	}
}

func TestTransferClampsToBalance(t *testing.T) {
	m := mem.New(1 << 14)
	b := New(m, 2, 50)
	c := core.Direct(m)
	moved := b.TransferCS(c, 0, 1, 500)
	if moved != 50 {
		t.Fatalf("moved %d, want the full 50", moved)
	}
	if b.BalanceCS(c, 0) != 0 {
		t.Fatalf("source balance %d, want 0", b.BalanceCS(c, 0))
	}
	if err := b.CheckConservation(c, 100); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransferConserves(t *testing.T) {
	m := mem.New(1 << 16)
	b := New(m, 16, 1000)
	c := core.Direct(m)
	f := func(from, to uint8, amount uint16) bool {
		f1 := int(from) % 16
		t1 := int(to) % 16
		if f1 == t1 {
			return true
		}
		b.TransferCS(c, f1, t1, uint64(amount))
		return b.Total(c) == 16*1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentConservation is the §6.3 workload as a correctness test:
// conservation of the total under every synchronization method, including
// ones that exercise the slow path (HTM-unfriendly transfers force lock
// holders while other transfers speculate).
func TestConcurrentConservation(t *testing.T) {
	builders := []func(m *mem.Memory) core.Method{
		func(m *mem.Memory) core.Method { return core.NewLock(m, core.Policy{}) },
		func(m *mem.Memory) core.Method { return core.NewTLE(m, core.Policy{}) },
		func(m *mem.Memory) core.Method { return core.NewRWTLE(m, core.Policy{}) },
		func(m *mem.Memory) core.Method { return core.NewFGTLE(m, 256, core.Policy{}) },
		func(m *mem.Memory) core.Method {
			return core.NewAdaptiveFGTLE(m, core.Policy{})
		},
	}
	for _, build := range builders {
		m := mem.New(1 << 18)
		meth := build(m)
		t.Run(meth.Name(), func(t *testing.T) {
			const accounts = 16
			const initial = 1000
			b := New(m, accounts, initial)
			const goroutines = 5
			const perG = 400
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				th := meth.NewThread()
				go func(id int, th core.Thread) {
					defer wg.Done()
					r := rng.NewXoshiro256(uint64(id) + 31)
					for i := 0; i < perG; i++ {
						from := r.Intn(accounts)
						to := r.Intn(accounts - 1)
						if to >= from {
							to++
						}
						amount := r.Uint64n(20) + 1
						unfriendly := r.Intn(10) == 0
						th.Atomic(func(c core.Context) {
							if unfriendly {
								c.Unsupported()
							}
							b.TransferCS(c, from, to, amount)
						})
					}
				}(g, th)
			}
			wg.Wait()
			if err := b.CheckConservation(core.Direct(m), accounts*initial); err != nil {
				t.Fatalf("%s violated conservation: %v", meth.Name(), err)
			}
		})
	}
}
