package main

import (
	"cmp"
	"fmt"
	"slices"

	"rtle/internal/avl"
	"rtle/internal/bank"
	"rtle/internal/cctsa"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/mem"
)

// fig11 regenerates Figure 11: the bank-accounts read-modify-write
// micro-benchmark (256 padded accounts, random transfers), throughput in
// transfers per millisecond.
func fig11(opt options) {
	opt.header("Fig. 11: bank-accounts throughput (transfers/ms) — 256 accounts")
	methods := []string{"Lock", "TLE", "RW-TLE", "FG-TLE(1)", "FG-TLE(16)",
		"FG-TLE(256)", "FG-TLE(1024)", "FG-TLE(4096)", "FG-TLE(8192)", "NOrec", "RHNOrec"}
	if opt.quick {
		methods = []string{"Lock", "TLE", "RW-TLE", "FG-TLE(256)", "NOrec", "RHNOrec"}
	}
	opt.sweep("method", perThread, methods, func(meth string, n int) string {
		res := opt.methodPoint(meth, n, 1<<20, func(m *mem.Memory) (harness.WorkerFactory, func() error) {
			bk := bank.New(m, 256, 10000)
			return harness.BankFactory(bk, 100), func() error { return bk.CheckConservation(core.Direct(m), 256*10000) }
		})
		return fmt.Sprintf("%.0f", res.Throughput())
	})
}

// fig12 regenerates Figure 12: one thread repeatedly executes an
// HTM-unfriendly Insert/Remove (it always falls back to the lock) while
// the remaining threads run Find — total throughput per method.
func fig12(opt options) {
	keyRange := uint64(65536)
	if opt.quick {
		keyRange = 8192
	}
	opt.header(fmt.Sprintf("Fig. 12: HTM-unfriendly thread + readers, AVL key range %d (ops/ms)", keyRange))
	methods := []string{"Lock", "TLE", "RW-TLE", "FG-TLE(1)", "FG-TLE(16)",
		"FG-TLE(256)", "FG-TLE(4096)", "FG-TLE(8192)", "NOrec", "RHNOrec"}
	if opt.quick {
		methods = []string{"Lock", "TLE", "RW-TLE", "FG-TLE(256)", "NOrec", "RHNOrec"}
	}
	opt.sweep("method", perThread, methods, func(meth string, n int) string {
		res := opt.avlPoint(meth, n, keyRange, func(set *avl.Set) harness.WorkerFactory {
			return harness.UnfriendlyFactory(set, keyRange, true)
		})
		return fmt.Sprintf("%.0f", res.Throughput())
	})
}

// fig13 regenerates Figure 13: total ccTSA runtime versus thread count for
// the original fine-grained-locking implementation and the transactified
// variant under each synchronization method, plus the §6.4.2 lock-fallback
// table.
func fig13(opt options) {
	genomeLen := 60000
	coverage := 8.0
	if opt.quick {
		genomeLen = 10000
	}
	opt.header(fmt.Sprintf("Fig. 13: ccTSA total runtime (ms) — synthetic genome %d bp, 36-bp reads, k=27", genomeLen))
	methods := []string{"Lock", "TLE", "RW-TLE", "FG-TLE(1)", "FG-TLE(16)",
		"FG-TLE(256)", "FG-TLE(1024)", "FG-TLE(4096)", "FG-TLE(8192)"}
	if opt.quick {
		methods = []string{"Lock", "TLE", "RW-TLE", "FG-TLE(1024)"}
	}
	// The share of atomic blocks that took the lock, per method and thread
	// count, for the second table; and the distinct k-mers Lock.orig, the
	// first row, counts at each thread count, which every variant must match.
	type cellKey struct {
		meth string
		n    int
	}
	fallback := map[cellKey]float64{}
	distinct := map[int]int{}
	opt.sweep("variant", perThread, append([]string{"Lock.orig"}, methods...), func(variant string, n int) string {
		in := cctsa.Prepare(cctsa.Config{GenomeLen: genomeLen, Coverage: coverage, Threads: n, Seed: opt.seed})
		warm(n)
		res := medianAssembly(opt.runs, func() *cctsa.Result {
			var res *cctsa.Result
			if variant == "Lock.orig" {
				res = in.RunOriginal()
				distinct[n] = res.DistinctKmers
			} else {
				res = in.RunTransactified(func(m *mem.Memory) core.Method {
					return harness.MustBuildMethod(variant, m, opt.policy())
				})
			}
			opt.mustHold(variant, n, assembled(res, distinct[n]))
			return res
		})
		fallback[cellKey{variant, n}] = res.Stats.LockFallbackFraction()
		return fmt.Sprintf("%.0f", float64(res.Total.Milliseconds()))
	})

	// A table of the runs above, so nothing to probe; methods[0] is Lock, whose
	// share is 100 % by construction.
	title("§6.4.2: fraction of atomic blocks that acquired the lock (per thread count)")
	opt.sweep("method", perThread, methods[1:], func(meth string, n int) string {
		return fmt.Sprintf("%.4f%%", fallback[cellKey{meth, n}]*100)
	})
}

// medianAssembly runs an assembly runs times and returns the run of median
// total runtime; of two central runs, the slower, as harness.Median picks.
func medianAssembly(runs int, run func() *cctsa.Result) *cctsa.Result {
	rs := make([]*cctsa.Result, max(runs, 1))
	for i := range rs {
		rs[i] = run()
	}
	slices.SortFunc(rs, func(a, b *cctsa.Result) int { return cmp.Compare(a.Total, b.Total) })
	return rs[len(rs)/2]
}

// assembled is what TestAssemblyVariantsAgree (internal/cctsa) asserts of an
// assembly: its contigs consume every k-mer it counted, and it counted the
// distinct k-mers the original assembler counts on the same input, want.
func assembled(res *cctsa.Result, want int) error {
	if res.DistinctKmers != want || res.KmersInContigs != want {
		return fmt.Errorf("ccTSA: %d distinct k-mers, %d in contigs; the original assembler counts %d",
			res.DistinctKmers, res.KmersInContigs, want)
	}
	return nil
}
