//go:build race

package server

// The race detector allocates behind instrumented code and makes sync.Pool
// drop a share of its Puts, so allocation budgets do not hold under it.
func init() { raceEnabled = true }
