// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated-HTM substrate. Each figure is a
// subcommand-style flag; -fig all runs the full evaluation and prints the
// text tables that EXPERIMENTS.md records.
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
//	experiments -fig all -quick   # everything, at reduced duration
//
// On a many-core machine, pass the paper's thread axis, e.g.
// -threads 1,2,4,8,12,16,18,24,28,36.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
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
	csvPath    string
}

func main() {
	var opt options
	var threadsFlag string
	flag.StringVar(&opt.fig, "fig", "all", "figure to regenerate: 5..13, scan, or all")
	flag.StringVar(&threadsFlag, "threads", "", "comma-separated thread counts (default 1,2,4,8)")
	flag.DurationVar(&opt.dur, "dur", 300*time.Millisecond, "duration per data point (-quick: 100ms unless given)")
	var seed int64
	flag.Int64Var(&seed, "seed", 1, "experiment seed")
	flag.BoolVar(&opt.quick, "quick", false, "reduced parameters for a fast pass")
	flag.IntVar(&opt.interleave, "interleave", 4, "concurrency virtualization: yield every N accesses (0 = off; see DESIGN.md §1.5)")
	flag.Float64Var(&opt.spurious, "spurious", 0.01, "per-access spurious-abort probability modelling capacity/interrupt aborts (0 = off)")
	flag.IntVar(&opt.runs, "runs", 1, "runs per data point; the median-throughput run is reported (the paper uses 5)")
	flag.StringVar(&opt.csvPath, "csv", "", "also append every AVL data point to this CSV file")
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
		"scan": figScan,
	}
	order := []string{"5", "6", "7", "8", "9", "10", "11", "12", "13", "scan"}
	if opt.fig == "all" {
		for _, f := range order {
			figs[f](opt)
		}
		flushCSV(opt)
		return
	}
	f, ok := figs[opt.fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q (want 5..13, scan, or all)\n", opt.fig)
		os.Exit(2)
	}
	f(opt)
	flushCSV(opt)
}
