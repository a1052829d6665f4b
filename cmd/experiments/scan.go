package main

import (
	"fmt"

	"rtle/internal/harness"
	"rtle/internal/mem"
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
		res := opt.methodPoint(meth, n, harness.DefaultSetHeapWords(8192, n)+1<<18, func(m *mem.Memory) harness.WorkerFactory {
			return harness.ScanWorkerFactory(avlSeeded(m, 8192), mix, 8192)
		})
		return fmt.Sprintf("%.0f\t%d", res.Throughput(), res.Total.SlowCommits)
	})
}
