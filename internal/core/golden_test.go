package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats.golden from the current engine")

// TestOneThreadStatsGolden pins what the simulated machine does for one
// thread: 20000 operations of avl_mixed's shape (8192 keys, 20:20:60) and of
// avl_lockheld's updater under TLE and FG-TLE(256), each with a fixed seed,
// and every count core.Stats keeps about them — operations, attempts and
// aborts by path and reason, commits by path — plus the heap's clock at the
// end, which every plain store and writing commit ticks once. With one
// thread nothing is left to the scheduler, so a change to the engine or a
// method that is meant to cost less and decide nothing differently must
// leave the file byte-identical. Time fields are not recorded. -update
// rewrites it.
func TestOneThreadStatsGolden(t *testing.T) {
	const keys = 8192
	workloads := []struct {
		name    string
		factory func(*avl.Set) harness.WorkerFactory
	}{
		{"mixed", func(s *avl.Set) harness.WorkerFactory {
			return harness.SetWorkerFactory(s, harness.SetMix{InsertPct: 20, RemovePct: 20}, keys)
		}},
		{"unfriendly", func(s *avl.Set) harness.WorkerFactory { return harness.UnfriendlyFactory(s, keys, true) }},
	}
	var out bytes.Buffer
	for _, method := range []string{"TLE", "FG-TLE(256)"} {
		for _, w := range workloads {
			m := mem.New(harness.DefaultSetHeapWords(keys, 1))
			set := avl.New(m)
			harness.SeedSet(set, keys)
			meth := harness.MustBuildMethod(method, m, core.Policy{})
			res := harness.Run(meth, harness.Config{Threads: 1, OpsPerThread: 20000, Seed: 7}, w.factory(set))
			writeCounts(&out, method+" "+w.name, &res.Total)
			fmt.Fprintf(&out, "  clock %d\n", m.ClockLoad())
		}
	}
	path := filepath.Join("testdata", "stats.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("one-thread stats differ from %s (go test ./internal/core -run StatsGolden -update rewrites it)\ngot:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}

// writeCounts prints every count field of s, by path and reason.
func writeCounts(out *bytes.Buffer, label string, s *core.Stats) {
	fmt.Fprintf(out, "%s\n", label)
	fmt.Fprintf(out, "  ops %d\n", s.Ops)
	fmt.Fprintf(out, "  commits fast %d slow %d lock %d\n", s.FastCommits, s.SlowCommits, s.LockRuns)
	fmt.Fprintf(out, "  attempts fast %d slow %d\n", s.FastAttempts, s.SlowAttempts)
	for r := htm.Conflict; int(r) < htm.NumReasons; r++ {
		fmt.Fprintf(out, "  aborts %-11s fast %d slow %d injected %d\n", r, s.FastAborts[r], s.SlowAborts[r], s.InjectedAborts[r])
	}
	fmt.Fprintf(out, "  subscription aborts %d\n", s.SubscriptionAborts)
	fmt.Fprintf(out, "  mode switches %d resizes %d\n", s.ModeSwitches, s.Resizes)
}
