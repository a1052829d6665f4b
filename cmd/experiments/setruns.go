package main

import (
	"fmt"
	"os"
	"slices"
	"text/tabwriter"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
)

// policy derives the shared synchronization policy from the contention
// flags: every method (including the Lock baseline and the STM paths) is
// paced identically, and spurious aborts model the non-conflict HTM
// failures (capacity overflows, interrupts) that drive the paper's
// contended regime: a fresh one-family fault plan per run, one abort
// stream per thread, as each core of real HTM suffers its own.
func (o options) policy() core.Policy {
	p := core.Policy{HTM: htm.Config{InterleaveEvery: o.interleave}}
	fault.NewDirector(fault.Plan{Seed: o.seed, AccessProb: o.spurious}).Configure(&p)
	return p
}

// mixes are the paper's operation distributions, written Ins:Rem:Find.
var mixes = []harness.SetMix{
	{InsertPct: 0, RemovePct: 0},
	{InsertPct: 10, RemovePct: 10},
	{InsertPct: 20, RemovePct: 20},
	{InsertPct: 50, RemovePct: 50},
}

func mixLabel(m harness.SetMix) string {
	return fmt.Sprintf("%d:%d:%d", m.InsertPct, m.RemovePct, 100-m.InsertPct-m.RemovePct)
}

// csvRecords accumulates every AVL data point for the -csv flag.
var csvRecords []harness.Record

// runSetPoint runs one AVL data point — a fresh heap, a seeded set, one
// method, one thread count — as options.point runs every point.
func runSetPoint(opt options, method string, keyRange uint64, mix harness.SetMix, threads int) *harness.Result {
	res := opt.methodPoint(method, threads, harness.DefaultSetHeapWords(keyRange, threads)+1<<18, func(m *mem.Memory) harness.WorkerFactory {
		return harness.SetWorkerFactory(avlSeeded(m, keyRange), mix, keyRange)
	})
	if opt.csvPath != "" {
		label := fmt.Sprintf("range=%d mix=%s", keyRange, mixLabel(mix))
		csvRecords = append(csvRecords, res.Record(label))
	}
	return res
}

// flushCSV writes the accumulated data points, if requested.
func flushCSV(opt options) {
	if opt.csvPath == "" || len(csvRecords) == 0 {
		return
	}
	f, err := os.Create(opt.csvPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return
	}
	defer f.Close()
	if err := harness.WriteCSV(f, csvRecords); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	fmt.Printf("\n%d data points written to %s\n", len(csvRecords), opt.csvPath)
}

// avlSeeded builds a seeded AVL set on m.
func avlSeeded(m *mem.Memory, keyRange uint64) *avl.Set {
	set := avl.New(m)
	harness.SeedSet(set, keyRange)
	return set
}

// newTable returns a tabwriter printing to stdout.
func newTable() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// perThread is sweep's column list for a figure with one number per cell.
var perThread = []string{""}

// sweep prints the table most figures are: corner, then for each thread
// count one "<prefix>T=n" column per prefix in cols; then one row per name in
// rows, its cell for each thread count from cell (tab-separated inside when
// cols has several prefixes). Cells are computed row by row, left to right.
func (o options) sweep(corner string, cols, rows []string, cell func(row string, threads int) string) {
	w := newTable()
	fmt.Fprint(w, corner)
	for _, n := range o.threads {
		for _, prefix := range cols {
			fmt.Fprintf(w, "\t%sT=%d", prefix, n)
		}
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprint(w, row)
		for _, n := range o.threads {
			fmt.Fprint(w, "\t", cell(row, n))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

func title(s string) {
	fmt.Printf("\n=== %s ===\n", s)
}

// header prints a figure's title and, for a thread axis that goes past one,
// what the two-spinner probe reads as the figure starts.
func (o options) header(s string) {
	title(s)
	if slices.Max(o.threads) > 1 {
		fmt.Printf("(two-spinner ratio %.2f: 1.0 = two threads run on two cores, 2.0 = they take turns)\n", warm(2))
	}
}

// warm makes sure a point of more than one thread starts with its threads
// really overlapping (harness.WarmUntilParallel), says so on stderr when the
// host never lets them, and returns the probe's last reading; 0 for a
// single-threaded point, which has nothing to overlap.
func warm(threads int) float64 {
	if threads < 2 {
		return 0
	}
	ratio, ok := harness.WarmUntilParallel()
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: two threads still take turns after the warm-up (two-spinner ratio %.2f); the next %d-thread point has little overlap in it\n", ratio, threads)
	}
	return ratio
}

// methodPoint is a point of one method on a fresh heap of words words:
// workload builds its structure on the heap, then the method is built on it.
func (o options) methodPoint(method string, threads, words int, workload func(*mem.Memory) harness.WorkerFactory) *harness.Result {
	return o.point(threads, func() *harness.Result {
		m := mem.New(words)
		factory := workload(m)
		return harness.Run(harness.MustBuildMethod(method, m, o.policy()), harness.Config{
			Threads: threads, Duration: o.dur, Seed: o.seed,
		}, factory)
	})
}

// point is how every harness data point runs: warmed, o.runs times over a
// fresh heap each (run builds it), the median-throughput run reported — the
// paper's discipline, §6.2 — with the probe's reading attached.
func (o options) point(threads int, run func() *harness.Result) *harness.Result {
	ratio := warm(threads)
	res := harness.Median(o.runs, run)
	res.ParallelRatio = ratio
	return res
}
