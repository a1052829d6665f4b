package main

import (
	"fmt"
	"strconv"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/rng"
)

// figAblation runs the design ablations A2–A6 of DESIGN.md §3 the way the
// figures run. A1, the orec count, has no table of its own: its cells are
// Fig. 5's 8192-key 20:20:60 panel, read beside Figs. 6 and 7. A row whose
// tweak is the default (A2's eager, A4's 5) runs untweaked, so it reads that
// panel's runs too.
func figAblation(opt options) {
	opt.header("A2: eager vs lazy subscription (§5), FG-TLE(1024) — key range 8192, 20% Ins/Rem (ops/ms)")
	opt.sweep("subscription", perThread, []string{"eager", "lazy"}, func(sub string, n int) string {
		o := opt
		if sub == "lazy" {
			o = opt.tweaked(sub, func(p *core.Policy) { p.LazySubscription = true })
		}
		return fmt.Sprintf("%.0f", runSetPoint(o, "FG-TLE(1024)", slowPathKeyRange, slowPathMix, n).Throughput())
	})

	opt.header("A3: adaptive vs fixed orec count (§4.2.1) — key range 512, 50:50:0 (ops/ms)")
	updates := harness.SetMix{InsertPct: 50, RemovePct: 50}
	opt.sweep("method", perThread, []string{"FG-TLE(1)", "FG-TLE(8192)", "FG-TLE(adaptive)"}, func(meth string, n int) string {
		return fmt.Sprintf("%.0f", runSetPoint(opt, meth, 512, updates, n).Throughput())
	})

	opt.header("A4: fast-path attempt budget (footnote 1), TLE — key range 8192, 20% Ins/Rem (ops/ms)")
	opt.sweep("attempts", perThread, []string{"1", "2", "5", "10"}, func(budget string, n int) string {
		attempts, _ := strconv.Atoi(budget) // the rows are literal budgets
		o := opt
		if attempts != core.DefaultAttempts {
			o = opt.tweaked("attempts="+budget, func(p *core.Policy) { p.Attempts = attempts })
		}
		return fmt.Sprintf("%.0f", runSetPoint(o, "TLE", slowPathKeyRange, slowPathMix, n).Throughput())
	})

	opt.header("A5: static vs AIMD attempt budget, TLE — one op in five an unsupported Insert, the rest Find, key range 8192")
	opt.sweep("budget", []string{"ops/ms ", "attempts/op "}, []string{"static", "AIMD"}, func(budget string, n int) string {
		o := opt.tweaked(budget, func(p *core.Policy) { p.AdaptiveAttempts = budget == "AIMD" })
		res := o.avlPoint("TLE", n, 8192, unsupportedInserts)
		return fmt.Sprintf("%.0f\t%.3f", res.Throughput(), float64(res.Total.FastAttempts)/float64(max(res.Total.Ops, 1)))
	})

	opt.header("A6: HLE and ALE beside TLE and FG-TLE (§2) — key range 8192, 20% Ins/Rem (ops/ms)")
	opt.sweep("method", perThread, []string{"HLE", "TLE", "FG-TLE(1024)", "ALE(1024)"}, func(meth string, n int) string {
		return fmt.Sprintf("%.0f", runSetPoint(opt, meth, slowPathKeyRange, slowPathMix, n).Throughput())
	})
}

// unsupportedInserts is A5's workload over a set of 8192 keys: one operation
// in five is an Insert that cannot speculate, so it ends on the lock after
// spending the attempt budget; the rest Find.
func unsupportedInserts(set *avl.Set) harness.WorkerFactory {
	return func(id int, t core.Thread) harness.Worker {
		h := set.NewHandle()
		return func(r *rng.Xoshiro256) {
			key := r.Uint64n(8192)
			if r.Intn(5) != 0 {
				h.Contains(t, key)
				return
			}
			var inserted bool
			t.Atomic(func(c core.Context) {
				c.Unsupported()
				inserted = h.InsertCS(c, key)
			})
			h.AfterInsert(inserted)
		}
	}
}
