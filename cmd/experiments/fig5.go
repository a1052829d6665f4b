package main

import (
	"fmt"

	"rtle/internal/harness"
)

// fig5 regenerates Figure 5: AVL-set speedup over single-threaded Lock,
// for key ranges {8192, 65536} × four operation mixes × all methods ×
// the thread axis.
func fig5(opt options) {
	keyRanges := []uint64{8192, 65536}
	methods := harness.MethodNames
	ms := mixes
	if opt.quick {
		keyRanges = keyRanges[:1]
		ms = []harness.SetMix{{InsertPct: 20, RemovePct: 20}}
		methods = []string{"Lock", "NOrec", "RHNOrec", "TLE", "RW-TLE", "FG-TLE(16)", "FG-TLE(1024)"}
	}
	for _, kr := range keyRanges {
		for _, mix := range ms {
			opt.header(fmt.Sprintf("Fig. 5: AVL speedup vs 1-thread Lock — key range %d, mix %s (Ins:Rem:Find)", kr, mixLabel(mix)))
			base := runSetPoint(opt, "Lock", kr, mix, 1)
			opt.sweep("method", perThread, methods, func(meth string, n int) string {
				return fmt.Sprintf("%.2f", runSetPoint(opt, meth, kr, mix, n).Speedup(base))
			})
		}
	}
}
