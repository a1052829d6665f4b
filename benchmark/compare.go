package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Classes a (metric, workload) pair can fall in when result b is read
// against result a.
const (
	classImproved   = "improved"
	classUnchanged  = "unchanged"
	classUnresolved = "unresolved"
	classRegressed  = "regressed"
)

// classify reads b against a for one end-to-end metric. worse is how far
// b's value is on the wrong side of a's, as a share of a's (negative:
// better). The spread is that of the values behind each side: a run's
// windows, or in the self-check a set's runs. A run whose windows spread
// past the bound was disturbed for much of its length.
//
//   - spread wider than the bound on either side: unresolved — never
//     unchanged — unless every value of b beats every one of a;
//   - worse by more than the bound: regressed;
//   - better by more than a's own interquartile range: improved;
//   - otherwise unchanged.
func classify(m *metricSpec, a, b summary) (class string, worse float64) {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse = sign * ratio(b.Value-a.Value, a.Value)
	allBetter := b.Max < a.Min
	if m.Better == "higher" {
		allBetter = b.Min > a.Max
	}
	switch {
	case a.spread() > m.Bound || b.spread() > m.Bound:
		if allBetter {
			return classImproved, worse
		}
		return classUnresolved, worse
	case worse > m.Bound:
		return classRegressed, worse
	case -worse > a.spread() && worse < 0 && a.N > 1:
		return classImproved, worse
	}
	return classUnchanged, worse
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints the class of every (metric, workload) and exits 1
// when anything regressed.
func compareFiles(pa, pb string) int {
	a, err := readResult(pa)
	if err != nil {
		return fail(err)
	}
	b, err := readResult(pb)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("a: %s  commit %s  seed %d  %d x %.1fs\n", pa, a.Stamp.Commit, a.Seed, a.Reps, a.RepSecs)
	fmt.Printf("b: %s  commit %s  seed %d  %d x %.1fs\n", pb, b.Stamp.Commit, b.Seed, b.Reps, b.RepSecs)
	if a.Reps != b.Reps || a.RepSecs != b.RepSecs || a.Stamp.NumCPU != b.Stamp.NumCPU {
		fmt.Println("WARNING: the two files were not measured with the same settings on the same host shape")
	}
	if compareResults(a, b) > 0 {
		return 1
	}
	return 0
}

// compareResults prints the class of every end-to-end pair and the
// per-layer values side by side (they carry no bound, so no class), and
// returns how many pairs regressed.
func compareResults(a, b *resultFile) (regressed int) {
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		fmt.Printf("\n== %s\n", wa.Name)
		if !wa.Correct || !wb.Correct {
			regressed++
			fmt.Println("   unverified run: nothing to compare")
			continue
		}
		for i := range spec.EndToEnd {
			m := &spec.EndToEnd[i]
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			class, worse := classify(m, sa, sb)
			if class == classRegressed {
				regressed++
			}
			fmt.Printf("   %-16s %-11s a %12.4f (iqr %5.2f%%)  b %12.4f (iqr %5.2f%%)  worse by %+6.2f%%  bound %4.1f%%\n",
				m.Name, class, sa.Value, 100*sa.spread(), sb.Value, 100*sb.spread(), 100*worse, 100*m.Bound)
		}
		if wa.PerLayer != nil && wb.PerLayer != nil {
			for _, m := range spec.PerLayer {
				va, vb := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
				if va == 0 && vb == 0 {
					continue // layer not driven by this workload
				}
				fmt.Printf("   %-34s a %14.4f  b %14.4f  b/a %6.3f\n", m.Name, va, vb, ratio(vb, va))
			}
		}
	}
	return regressed
}

// selfCheckRuns is how many suites each side of the self-check runs. One
// run a side is what a single host stall of half a minute defeats (this
// host has them); the median of three is not.
const selfCheckRuns = 3

// selfCheck measures this commit against itself the way the driver does,
// in small: two sets of selfCheckRuns suites each, interleaved A B A B A B
// so both sets see the same hours, each (metric, workload) reduced to the
// median over its set's runs. The sets must agree within the metric's
// bound in either direction: the benchmark's own noise has to fit inside
// the bounds it enforces.
func selfCheck(cfg *runConfig, header *resultFile) int {
	// Only what the driver runs: the workloads BENCHMARK.json names.
	var gated []*workload
	for _, w := range workloads {
		for _, sw := range spec.Workloads {
			if sw.Name == w.name {
				gated = append(gated, w)
			}
		}
	}
	var sets [2][]*resultFile
	for run := 0; run < selfCheckRuns; run++ {
		for side := range sets {
			tag := fmt.Sprintf("selfcheck_%c%d", 'a'+side, run+1)
			fmt.Printf("\n#### selfcheck suite %s\n", tag)
			f := *header
			if err := runSuite(cfg, &f, filepath.Join(cfg.outDir, tag), gated); err != nil {
				return fail(err)
			}
			if err := writeResult(filepath.Join(cfg.outDir, tag+".json"), &f); err != nil {
				return fail(err)
			}
			sets[side] = append(sets[side], &f)
		}
	}
	a, b := mergeRuns(sets[0]), mergeRuns(sets[1])
	fmt.Printf("\n#### selfcheck: set b against set a, each the median of %d runs' values\n", selfCheckRuns)
	compareResults(a, b)
	bad := 0
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if !wa.Correct || !wb.Correct {
			bad++
			continue
		}
		for j := range spec.EndToEnd {
			m := &spec.EndToEnd[j]
			if _, worse := classify(m, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]); worse > m.Bound || -worse > m.Bound {
				fmt.Printf("DISAGREE: %s %s differs by %+.2f%%, bound %.1f%%\n", wa.Name, m.Name, 100*worse, 100*m.Bound)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck FAILED: %d pairs disagree\n", bad)
		return 1
	}
	fmt.Println("selfcheck passed: every end-to-end pair agrees within its bound")
	return 0
}

// mergeRuns reduces several runs of the suite to one result whose values
// are the runs' reported values, and whose own value is their median.
func mergeRuns(runs []*resultFile) *resultFile {
	out := *runs[0]
	out.Workloads = nil
	for i, w0 := range runs[0].Workloads {
		w := &workloadResult{Name: w0.Name, Shape: w0.Shape, Correct: true, EndToEnd: map[string]summary{}}
		for _, m := range spec.EndToEnd {
			var vs []float64
			for _, r := range runs {
				vs = append(vs, r.Workloads[i].EndToEnd[m.Name].Value)
			}
			w.EndToEnd[m.Name] = summarize(m.Unit, vs)
		}
		for _, r := range runs {
			rw := r.Workloads[i]
			w.Correct = w.Correct && rw.Correct
			w.Attempted += rw.Attempted
			w.Failed += rw.Failed
		}
		out.Workloads = append(out.Workloads, w)
	}
	return &out
}
