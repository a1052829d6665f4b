package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestSmoke drives all seven workloads at smoke sizes, untraced and traced,
// against a freshly built rtled, and holds the program to BENCHMARK.json:
// exactly the listed names come out, every value is finite, nothing fails,
// and no child process outlives its workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots rtled children; skipped under -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := loadSpec(root); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json names the first workloads of the program, in order;
	// the rest run in the suite only.
	if len(spec.Workloads) > len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, sw.Name, workloads[i].name)
		}
	}

	dir := t.TempDir()
	rtled := filepath.Join(dir, "rtled")
	build := exec.Command("go", "build", "-o", rtled, "rtle/cmd/rtled")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rtled: %v\n%s", err, out)
	}
	t.Cleanup(func() {
		stopAllChildren()
		if n := len(children.live); n != 0 {
			t.Errorf("%d rtled children still registered after the run", n)
		}
	})

	for _, traced := range []bool{false, true} {
		cfg := &runConfig{
			seed: 1, reps: 1, setups: 1, repDur: 500 * time.Millisecond, seconds: 0.5, warmup: 50 * time.Millisecond,
			trace: traced, quick: true, root: root, outDir: dir, rtled: rtled,
		}
		for _, w := range workloads {
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if n := len(children.live); n != 0 {
				t.Errorf("%s: %d rtled children alive after the workload returned", w.name, n)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			var got, want []string
			if traced {
				for k, v := range res.PerLayer {
					got = append(got, k)
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: %s = %v", w.name, k, v)
					}
				}
				for _, m := range spec.PerLayer {
					want = append(want, m.Name)
				}
				if res.PerLayer["bench.failed_ratio"] != 0 {
					t.Errorf("%s: failed_ratio %v", w.name, res.PerLayer["bench.failed_ratio"])
				}
				if r := res.PerLayer["trace.overhead_ratio"]; r <= 0 {
					t.Errorf("%s: trace.overhead_ratio %v", w.name, r)
				}
			} else {
				for k, s := range res.EndToEnd {
					got = append(got, k)
					if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value <= 0 {
						t.Errorf("%s: %s = %v, want a positive finite value", w.name, k, s.Value)
					}
				}
				for _, m := range spec.EndToEnd {
					want = append(want, m.Name)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Errorf("%s (trace %v): emitted %d metrics, BENCHMARK.json lists %d", w.name, traced, len(got), len(want))
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Errorf("%s (trace %v): emitted %q where BENCHMARK.json lists %q", w.name, traced, got[i], want[i])
					break
				}
			}
		}
	}
}
