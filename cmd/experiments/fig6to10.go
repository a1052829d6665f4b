package main

import (
	"fmt"

	"rtle/internal/harness"
)

// slowPathMix is the workload of Figs. 6–10: key range 8192, 20%
// Insert/Remove.
const slowPathKeyRange = 8192

var slowPathMix = harness.SetMix{InsertPct: 20, RemovePct: 20}

// fig6 regenerates Figure 6: slow-path throughput of the refined variants
// — hardware commits on the instrumented path and lock-path executions,
// each per millisecond of lock-held time.
func fig6(opt options) {
	opt.header("Fig. 6: refined-TLE slow-path throughput (ops/ms of lock-held time) — key range 8192, 20% Ins/Rem")
	opt.sweep("method", []string{"SlowHTM ", "Lock "}, harness.RefinedNames, func(meth string, n int) string {
		res := runSetPoint(opt, meth, slowPathKeyRange, slowPathMix, n)
		return fmt.Sprintf("%.0f\t%.0f", res.SlowHTMThroughput(), res.LockPathThroughput())
	})
}

// fig7 regenerates Figure 7: per-execution time under lock, normalized to
// the Lock method at the same thread count.
func fig7(opt options) {
	opt.header("Fig. 7: execution time under lock relative to Lock — key range 8192, 20% Ins/Rem")
	methods := append([]string{"Lock", "TLE"}, harness.RefinedNames...)
	opt.sweep("method", perThread, methods, func(meth string, n int) string {
		lock := runSetPoint(opt, "Lock", slowPathKeyRange, slowPathMix, n)
		return fmt.Sprintf("%.2f", runSetPoint(opt, meth, slowPathKeyRange, slowPathMix, n).RelativeTimeUnderLock(lock))
	})
}

// fig8 regenerates Figure 8: RHNOrec's slow-path throughput — hardware
// commits that bump the timestamp, and software commits, per millisecond
// of software-transaction time.
func fig8(opt options) {
	opt.header("Fig. 8: RHNOrec slow-path throughput (ops/ms of software-transaction time) — key range 8192, 20% Ins/Rem")
	w := newTable()
	fmt.Fprintln(w, "threads\tSlowHTM\tSWSlow")
	for _, n := range opt.threads {
		res := runSetPoint(opt, "RHNOrec", slowPathKeyRange, slowPathMix, n)
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\n", n, res.RHNOrecSlowHTMThroughput(), res.STMThroughput())
	}
	w.Flush()
}

// fig9 regenerates Figure 9: RHNOrec execution-type distribution.
func fig9(opt options) {
	opt.header("Fig. 9: RHNOrec execution-type fractions — key range 8192, 20% Ins/Rem")
	w := newTable()
	fmt.Fprintln(w, "threads\tHTMFast\tHTMSlow\tSTMFastCommit\tSTMSlowCommit")
	for _, n := range opt.threads {
		res := runSetPoint(opt, "RHNOrec", slowPathKeyRange, slowPathMix, n)
		f := res.ExecTypeDistribution()
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%.3f\n", n, f.HTMFast, f.HTMSlow, f.STMFast, f.STMSlow)
	}
	w.Flush()
}

// fig10 regenerates Figure 10: value-based validations per software
// transaction, NOrec vs RHNOrec.
func fig10(opt options) {
	opt.header("Fig. 10: validations per software transaction — key range 8192, 20% Ins/Rem")
	w := newTable()
	fmt.Fprintln(w, "threads\tNOrec\tRHNOrec")
	for _, n := range opt.threads {
		no := runSetPoint(opt, "NOrec", slowPathKeyRange, slowPathMix, n)
		rh := runSetPoint(opt, "RHNOrec", slowPathKeyRange, slowPathMix, n)
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", n, no.ValidationsPerTx(), rh.ValidationsPerTx())
	}
	w.Flush()
}
