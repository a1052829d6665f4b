// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated-HTM substrate, as markdown. It first
// prints a heading naming its command, then a line naming the Go version,
// GOOS/GOARCH, NumCPU and GOMAXPROCS; then each figure's title and one
// table, thread counts as columns. `make experiments` writes two such runs
// into EXPERIMENTS.md's generated tail, the record the rest of that file
// reads.
//
// Usage:
//
//	experiments -fig 5            # AVL throughput grid (Fig. 5)
//	experiments -fig 6            # slow-path throughput (Fig. 6)
//	experiments -fig 7            # time under lock (Fig. 7)
//	experiments -fig 8            # RHNOrec slow-path throughput (Fig. 8)
//	experiments -fig 9            # RHNOrec execution types (Fig. 9)
//	experiments -fig 10           # validations per transaction (Fig. 10)
//	experiments -fig 11           # bank accounts (Fig. 11)
//	experiments -fig 12           # HTM-unfriendly corner case (Fig. 12)
//	experiments -fig 13           # ccTSA runtimes (Fig. 13 + fallback table)
//	experiments -fig scan         # wide-scan extension
//	experiments -fig ablation     # design ablations A2–A6
//	experiments -fig all -quick   # everything, at reduced duration
//
// On a many-core machine, pass the paper's thread axis, e.g.
// -threads 1,2,4,8,12,16,18,24,28,36.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rtle/internal/core"
	"rtle/internal/harness"
)

type options struct {
	fig        string
	threads    []int
	dur        time.Duration
	seed       uint64
	quick      bool
	interleave int
	spurious   float64
	runs       int
	// tweak, set by an ablation (options.tweaked) and never by a flag, changes
	// every point's policy; variant names it in set-point keys and failed
	// checks.
	tweak   func(*core.Policy)
	variant string
	// setRuns holds the invocation's AVL set points (runSetPoint), so a point
	// that several figures name runs once.
	setRuns map[setPoint]*harness.Result
}

func main() {
	opt := options{setRuns: map[setPoint]*harness.Result{}}
	var threadsFlag string
	flag.StringVar(&opt.fig, "fig", "all", "figure to regenerate: 5..13, scan, ablation, or all")
	flag.StringVar(&threadsFlag, "threads", "", "comma-separated thread counts (default 1,2,4,8)")
	flag.DurationVar(&opt.dur, "dur", 300*time.Millisecond, "duration per data point (-quick: 100ms unless given)")
	var seed int64
	flag.Int64Var(&seed, "seed", 1, "experiment seed")
	flag.BoolVar(&opt.quick, "quick", false, "reduced parameters for a fast pass")
	flag.IntVar(&opt.interleave, "interleave", 4, "concurrency virtualization: yield every N accesses (0 = off; see DESIGN.md §1.5)")
	flag.Float64Var(&opt.spurious, "spurious", 0.01, "per-access spurious-abort probability modelling capacity/interrupt aborts (0 = off)")
	flag.IntVar(&opt.runs, "runs", 1, "runs per data point; the median-throughput run is reported (the paper uses 5)")
	flag.Parse()
	opt.seed = uint64(seed)

	if threadsFlag == "" {
		threadsFlag = "1,2,4,8"
	}
	for _, f := range strings.Split(threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "experiments: bad thread count %q\n", f)
			os.Exit(2)
		}
		opt.threads = append(opt.threads, n)
	}
	if opt.quick {
		// -quick shortens a point only when -dur did not say how long one is.
		durSet := false
		flag.Visit(func(f *flag.Flag) { durSet = durSet || f.Name == "dur" })
		if !durSet {
			opt.dur = 100 * time.Millisecond
		}
	}

	figs := map[string]func(options){
		"5": fig5, "6": fig6, "7": fig7, "8": fig8, "9": fig9,
		"10": fig10, "11": fig11, "12": fig12, "13": fig13,
		"scan": figScan, "ablation": figAblation,
	}
	order := []string{"5", "6", "7", "8", "9", "10", "11", "12", "13", "scan", "ablation"}
	if opt.fig != "all" {
		if _, ok := figs[opt.fig]; !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown figure %q (want 5..13, scan, ablation, or all)\n", opt.fig)
			os.Exit(2)
		}
		order = []string{opt.fig}
	}
	fmt.Printf("\n## `experiments %s`\n\nEnvironment: %s %s/%s, NumCPU %d, GOMAXPROCS %d.\n",
		strings.Join(os.Args[1:], " "), runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, f := range order {
		opt.fig = f
		figs[f](opt)
	}
}
