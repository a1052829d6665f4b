package harness

import (
	"cmp"
	"slices"
)

// Median runs an experiment n times (each invocation of run must build a
// fresh data structure and method) and returns the run of median rate, as
// its Throughput method reads it. The paper reports the median of 5 runs
// and presents the auxiliary statistics from the median run (§6.2); this
// helper gives drivers the same discipline.
//
// For odd n this is the middle run. For even n there is no middle run, and
// the result must still carry self-consistent auxiliary statistics (so the
// two central runs cannot be averaged): Median returns the slower of the
// two central runs, results[(n-1)/2] in rate order, so an even-length
// sample never overstates its median.
func Median[R interface{ Throughput() float64 }](n int, run func() R) R {
	results := make([]R, max(n, 1))
	for i := range results {
		results[i] = run()
	}
	slices.SortFunc(results, func(a, b R) int { return cmp.Compare(a.Throughput(), b.Throughput()) })
	return results[(len(results)-1)/2]
}
