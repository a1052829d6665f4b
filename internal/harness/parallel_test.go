package harness

import (
	"testing"
	"time"
)

// TestParallelProbeIsBounded pins only what holds on any host, one core or
// many, quiet or shared: the probe comes back within its budget and reads a
// ratio a machine can produce. What the ratio *is* depends on the host and
// is the caller's to print.
func TestParallelProbeIsBounded(t *testing.T) {
	start := time.Now()
	ratio, ok := WarmUntilParallel()
	if d := time.Since(start); d > warmBudget+time.Second {
		t.Fatalf("WarmUntilParallel took %v, budget %v", d, warmBudget)
	}
	t.Logf("two-spinner ratio %.2f, parallel %v", ratio, ok)
	// Other packages' tests share the machine; a reading taken while one of
	// them was scheduled over a spinner is theirs, not the probe's.
	for try := 0; ratio < 0.8 || ratio > 2.5; try++ {
		if try == 5 {
			t.Fatalf("two-spinner ratio %.2f in six readings, want one in [0.8, 2.5]", ratio)
		}
		ratio = ParallelRatio()
	}
}
