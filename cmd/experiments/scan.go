package main

import (
	"fmt"

	"rtle/internal/avl"
	"rtle/internal/harness"
)

// figScan is this repository's extension experiment (EXPERIMENTS.md §Scan):
// the §6.2 point-operation workload plus occasional wide range scans whose
// read sets overflow the simulated HTM capacity, so they fall back to the
// lock *naturally* — the capacity failure source the paper's §1 names,
// with no fault injection. While a scan holds the lock, refined TLE lets
// point operations keep committing on the slow path.
func figScan(opt options) {
	opt.header("Scan extension: 20% Ins/Rem + 5% wide scans (capacity fallbacks), key range 8192 (ops/ms)")
	mix := harness.ScanMix{
		SetMix:   harness.SetMix{InsertPct: 20, RemovePct: 20},
		ScanPct:  5,
		ScanSpan: 4096,
	}
	methods := []string{"Lock", "TLE", "RW-TLE", "FG-TLE(16)", "FG-TLE(1024)", "FG-TLE(8192)", "NOrec", "RHNOrec"}
	opt.sweep("method", []string{"", "slow "}, methods, func(meth string, n int) string {
		res := opt.avlPoint(meth, n, 8192, func(set *avl.Set) harness.WorkerFactory {
			return harness.ScanWorkerFactory(set, mix, 8192)
		})
		return fmt.Sprintf("%.0f\t%d", res.Throughput(), res.Total.SlowCommits)
	})
}
