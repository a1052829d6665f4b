package main

import (
	"fmt"

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
	w := newTable()
	fmt.Fprintf(w, "method")
	for _, n := range opt.threads {
		fmt.Fprintf(w, "\tT=%d", n)
	}
	fmt.Fprintln(w)
	for _, meth := range methods {
		fmt.Fprintf(w, "%s", meth)
		for _, n := range opt.threads {
			res := opt.point(n, func() *harness.Result {
				m := mem.New(1 << 20)
				b := bank.New(m, 256, 10000)
				method := harness.MustBuildMethod(meth, m, opt.policy())
				return harness.Run(method, harness.Config{
					Threads: n, Duration: opt.dur, Seed: opt.seed,
				}, harness.BankFactory(b, 100))
			})
			fmt.Fprintf(w, "\t%.0f", res.Throughput())
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// fig12 regenerates Figure 12: one thread repeatedly executes an
// HTM-unfriendly Insert/Remove (it always falls back to the lock) while
// the remaining threads run Find — total throughput per method.
func fig12(opt options) {
	opt.header("Fig. 12: HTM-unfriendly thread + readers, AVL key range 65536 (ops/ms)")
	keyRange := uint64(65536)
	if opt.quick {
		keyRange = 8192
	}
	methods := []string{"Lock", "TLE", "RW-TLE", "FG-TLE(1)", "FG-TLE(16)",
		"FG-TLE(256)", "FG-TLE(4096)", "FG-TLE(8192)", "NOrec", "RHNOrec"}
	if opt.quick {
		methods = []string{"Lock", "TLE", "RW-TLE", "FG-TLE(256)", "NOrec", "RHNOrec"}
	}
	w := newTable()
	fmt.Fprintf(w, "method")
	for _, n := range opt.threads {
		fmt.Fprintf(w, "\tT=%d", n)
	}
	fmt.Fprintln(w)
	for _, meth := range methods {
		fmt.Fprintf(w, "%s", meth)
		for _, n := range opt.threads {
			res := opt.point(n, func() *harness.Result {
				m := mem.New(harness.DefaultSetHeapWords(keyRange, n) + 1<<18)
				set := avlSeeded(m, keyRange)
				method := harness.MustBuildMethod(meth, m, opt.policy())
				return harness.Run(method, harness.Config{
					Threads: n, Duration: opt.dur, Seed: opt.seed,
				}, harness.UnfriendlyFactory(set, keyRange, true))
			})
			fmt.Fprintf(w, "\t%.0f", res.Throughput())
		}
		fmt.Fprintln(w)
	}
	w.Flush()
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
	w := newTable()
	fmt.Fprintf(w, "variant")
	for _, n := range opt.threads {
		fmt.Fprintf(w, "\tT=%d", n)
	}
	fmt.Fprintln(w)

	fallback := map[string][]float64{}

	fmt.Fprintf(w, "Lock.orig")
	for _, n := range opt.threads {
		in := cctsa.Prepare(cctsa.Config{GenomeLen: genomeLen, Coverage: coverage, Threads: n, Seed: opt.seed})
		warm(n)
		res := in.RunOriginal()
		fmt.Fprintf(w, "\t%.0f", float64(res.Total.Milliseconds()))
	}
	fmt.Fprintln(w)

	for _, meth := range methods {
		fmt.Fprintf(w, "%s", meth)
		for _, n := range opt.threads {
			in := cctsa.Prepare(cctsa.Config{GenomeLen: genomeLen, Coverage: coverage, Threads: n, Seed: opt.seed})
			warm(n)
			res := in.RunTransactified(func(m *mem.Memory) core.Method {
				return harness.MustBuildMethod(meth, m, opt.policy())
			})
			fmt.Fprintf(w, "\t%.0f", float64(res.Total.Milliseconds()))
			if res.Stats.Ops > 0 {
				fallback[meth] = append(fallback[meth], float64(res.Stats.LockRuns)/float64(res.Stats.Ops))
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()

	title("§6.4.2: fraction of atomic blocks that acquired the lock (per thread count)") // a table of the runs above: nothing to probe
	w2 := newTable()
	fmt.Fprintf(w2, "method")
	for _, n := range opt.threads {
		fmt.Fprintf(w2, "\tT=%d", n)
	}
	fmt.Fprintln(w2)
	for _, meth := range methods {
		if meth == "Lock" {
			continue
		}
		fmt.Fprintf(w2, "%s", meth)
		for _, r := range fallback[meth] {
			fmt.Fprintf(w2, "\t%.4f%%", r*100)
		}
		fmt.Fprintln(w2)
	}
	w2.Flush()
}
