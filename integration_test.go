// Cross-module integration tests: every synchronization method drives
// every benchmark structure concurrently, with HTM-unfriendly operations
// keeping the pessimistic paths busy, and exact accounting checked at the
// end. These are the widest correctness nets in the repository: any
// isolation defect in a method, a barrier protocol, the HTM simulation, or
// a data structure surfaces as a broken invariant here.
package rtle_test

import (
	"sync"
	"testing"

	"rtle/internal/avl"
	"rtle/internal/bank"
	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
	"rtle/internal/tmap"
)

// integrationMethods is the full method matrix.
var integrationMethods = []string{
	"Lock", "TLE", "HLE", "RW-TLE",
	"FG-TLE(1)", "FG-TLE(64)", "FG-TLE(1024)",
	"FG-TLE(adaptive)", "ALE(64)", "NOrec", "RHNOrec",
}

// integrationPolicies exercises plain and virtualized/fault-injected
// configurations. Each returns a fresh policy, so every run gets its own
// fault Director.
func integrationPolicies(short bool) map[string]func() core.Policy {
	pols := map[string]func() core.Policy{
		"default": func() core.Policy { return core.Policy{} },
	}
	if !short {
		pols["contended"] = func() core.Policy {
			return spuriousPolicy(4, 0.02, 17)
		}
	}
	return pols
}

// spuriousPolicy paces every access path at interleave and aborts each
// transactional access with probability prob, from per-thread streams
// derived from seed.
func spuriousPolicy(interleave int, prob float64, seed uint64) core.Policy {
	p := core.Policy{HTM: htm.Config{InterleaveEvery: interleave}}
	fault.NewDirector(fault.Plan{Seed: seed, AccessProb: prob}).Configure(&p)
	return p
}

func TestIntegrationSetAllMethods(t *testing.T) {
	const keyRange = 64
	for polName, pol := range integrationPolicies(testing.Short()) {
		for _, name := range integrationMethods {
			t.Run(polName+"/"+name, func(t *testing.T) {
				m := mem.New(1 << 22)
				meth := harness.MustBuildMethod(name, m, pol())
				set := avl.New(m)
				initial := map[uint64]bool{}
				seedH := set.NewHandle()
				dc := core.Direct(m)
				for k := uint64(0); k < keyRange; k += 2 {
					seedH.InsertCS(dc, k)
					seedH.AfterInsert(true)
					initial[k] = true
				}

				const goroutines = 4
				const perG = 350
				deltas := make([][]int64, goroutines)
				var wg sync.WaitGroup
				wg.Add(goroutines)
				for g := 0; g < goroutines; g++ {
					deltas[g] = make([]int64, keyRange)
					th := meth.NewThread()
					go func(id int, th core.Thread) {
						defer wg.Done()
						h := set.NewHandle()
						r := rng.NewXoshiro256(uint64(id) + 1)
						for i := 0; i < perG; i++ {
							key := r.Uint64n(keyRange)
							unfriendly := r.Intn(12) == 0
							switch r.Intn(4) {
							case 0:
								var res bool
								th.Atomic(func(c core.Context) {
									if unfriendly {
										c.Unsupported()
									}
									res = h.InsertCS(c, key)
								})
								h.AfterInsert(res)
								if res {
									deltas[id][key]++
								}
							case 1:
								var res bool
								th.Atomic(func(c core.Context) {
									if unfriendly {
										c.Unsupported()
									}
									res = h.RemoveCS(c, key)
								})
								h.AfterRemove(res)
								if res {
									deltas[id][key]--
								}
							default:
								h.Contains(th, key)
							}
						}
					}(g, th)
				}
				wg.Wait()

				if err := set.CheckInvariants(dc); err != nil {
					t.Fatalf("%s corrupted the tree: %v", name, err)
				}
				final := map[uint64]bool{}
				for _, k := range set.Keys(dc) {
					final[k] = true
				}
				for k := uint64(0); k < keyRange; k++ {
					var net int64
					for g := range deltas {
						net += deltas[g][k]
					}
					if b2i(final[k])-b2i(initial[k]) != net {
						t.Errorf("%s key %d: initial %v final %v net %d", name, k, initial[k], final[k], net)
					}
				}
			})
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestIntegrationBankAllMethods(t *testing.T) {
	const accounts = 24
	const initial = 500
	for polName, pol := range integrationPolicies(testing.Short()) {
		for _, name := range integrationMethods {
			t.Run(polName+"/"+name, func(t *testing.T) {
				m := mem.New(1 << 20)
				meth := harness.MustBuildMethod(name, m, pol())
				b := bank.New(m, accounts, initial)
				const goroutines = 4
				const perG = 350
				var wg sync.WaitGroup
				wg.Add(goroutines)
				for g := 0; g < goroutines; g++ {
					th := meth.NewThread()
					go func(id int, th core.Thread) {
						defer wg.Done()
						r := rng.NewXoshiro256(uint64(id) + 7)
						for i := 0; i < perG; i++ {
							from := r.Intn(accounts)
							to := r.Intn(accounts - 1)
							if to >= from {
								to++
							}
							amount := r.Uint64n(20) + 1
							unfriendly := r.Intn(12) == 0
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
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
	}
}

func TestIntegrationMapAllMethods(t *testing.T) {
	const keyRange = 48
	for polName, pol := range integrationPolicies(testing.Short()) {
		for _, name := range integrationMethods {
			t.Run(polName+"/"+name, func(t *testing.T) {
				m := mem.New(1 << 22)
				meth := harness.MustBuildMethod(name, m, pol())
				mp := tmap.New(m, 32)
				const goroutines = 4
				const perG = 350
				var wg sync.WaitGroup
				wg.Add(goroutines)
				for g := 0; g < goroutines; g++ {
					th := meth.NewThread()
					go func(id int, th core.Thread) {
						defer wg.Done()
						h := mp.NewHandle()
						r := rng.NewXoshiro256(uint64(id) + 3)
						for i := 0; i < perG; i++ {
							key := r.Uint64n(keyRange) + 1
							unfriendly := r.Intn(12) == 0
							th.Atomic(func(c core.Context) {
								if unfriendly {
									c.Unsupported()
								}
								h.AddCS(c, key, 1)
							})
							h.Committed()
						}
					}(g, th)
				}
				wg.Wait()
				var total uint64
				mp.ForEach(core.Direct(m), func(_, v uint64) bool { total += v; return true })
				if total != goroutines*perG {
					t.Fatalf("%s lost increments: %d, want %d", name, total, goroutines*perG)
				}
			})
		}
	}
}

// TestIntegrationSoak is a longer randomized shake-out, skipped in -short
// runs: all structures share one heap and one method, with mixed traffic.
func TestIntegrationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	m := mem.New(1 << 23)
	pol := spuriousPolicy(8, 0.005, 23)
	meth := core.NewFGTLE(m, 512, pol)
	set := avl.New(m)
	b := bank.New(m, 16, 1000)
	mp := tmap.New(m, 64)

	const goroutines = 6
	const perG = 2500
	deltas := make([][]int64, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		deltas[g] = make([]int64, 64)
		th := meth.NewThread()
		go func(id int, th core.Thread) {
			defer wg.Done()
			hs := set.NewHandle()
			hm := mp.NewHandle()
			r := rng.NewXoshiro256(uint64(id) + 51)
			for i := 0; i < perG; i++ {
				switch r.Intn(6) {
				case 0:
					key := r.Uint64n(64)
					if hs.Insert(th, key) {
						deltas[id][key]++
					}
				case 1:
					key := r.Uint64n(64)
					if hs.Remove(th, key) {
						deltas[id][key]--
					}
				case 2:
					hs.Contains(th, r.Uint64n(64))
				case 3:
					from := r.Intn(16)
					to := (from + 1 + r.Intn(15)) % 16
					b.Transfer(th, from, to, r.Uint64n(10)+1)
				case 4:
					hm.Add(th, r.Uint64n(32)+1, 1)
				default:
					th.Atomic(func(c core.Context) {
						c.Unsupported()
						hs.FindCS(c, r.Uint64n(64))
					})
				}
			}
		}(g, th)
	}
	wg.Wait()

	dc := core.Direct(m)
	if err := set.CheckInvariants(dc); err != nil {
		t.Fatalf("soak corrupted the tree: %v", err)
	}
	if err := b.CheckConservation(dc, 16*1000); err != nil {
		t.Fatalf("soak violated conservation: %v", err)
	}
	final := map[uint64]bool{}
	for _, k := range set.Keys(dc) {
		final[k] = true
	}
	for k := uint64(0); k < 64; k++ {
		var net int64
		for g := range deltas {
			net += deltas[g][k]
		}
		if b2i(final[k]) != net {
			t.Errorf("soak key %d: net %d, final %v", k, net, final[k])
		}
	}
}
