package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

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
	if o.tweak != nil {
		o.tweak(&p)
	}
	return p
}

// tweaked returns o with every point's policy changed by tweak, which
// variant names.
func (o options) tweaked(variant string, tweak func(*core.Policy)) options {
	o.variant, o.tweak = variant, tweak
	return o
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

// setPoint names an AVL set data point: every figure and ablation row that
// names the same one reads the same median run.
type setPoint struct {
	method   string
	keyRange uint64
	mix      harness.SetMix
	threads  int
	variant  string
}

// runSetPoint returns one AVL data point — a fresh heap, a seeded set, one
// method, one thread count — measured as methodPoint measures every point,
// the first time the invocation names it, and from opt.setRuns after that.
func runSetPoint(opt options, method string, keyRange uint64, mix harness.SetMix, threads int) *harness.Result {
	key := setPoint{method, keyRange, mix, threads, opt.variant}
	if res, ok := opt.setRuns[key]; ok {
		return res
	}
	res := opt.avlPoint(method, threads, keyRange, func(set *avl.Set) harness.WorkerFactory {
		return harness.SetWorkerFactory(set, mix, keyRange)
	})
	opt.setRuns[key] = res
	return res
}

// A workload builds its structure on a fresh heap and returns its workers'
// factory and the check the structure must pass once they have run.
type workload func(*mem.Memory) (harness.WorkerFactory, func() error)

// avlWorkload seeds an AVL set of keyRange keys for workers to run on; the
// tree's invariants are its check.
func avlWorkload(keyRange uint64, workers func(*avl.Set) harness.WorkerFactory) workload {
	return func(m *mem.Memory) (harness.WorkerFactory, func() error) {
		set := avl.New(m)
		harness.SeedSet(set, keyRange)
		return workers(set), func() error { return set.CheckInvariants(core.Direct(m)) }
	}
}

// avlPoint is a point of one method over avlWorkload's set.
func (o options) avlPoint(method string, threads int, keyRange uint64, workers func(*avl.Set) harness.WorkerFactory) *harness.Result {
	return o.methodPoint(method, threads, harness.DefaultSetHeapWords(keyRange, threads)+1<<18, avlWorkload(keyRange, workers))
}

// perThread is sweep's column list for a figure with one number per cell.
var perThread = []string{""}

// sweep prints the markdown table every figure is: corner, then for each
// thread count one "<prefix>T=n" column per prefix in cols; then one row per
// name in rows, its cells for each thread count from cell (tab-separated
// inside when cols has several prefixes). Cells are computed row by row,
// left to right; under the table, one line names each point whose threads
// still took turns after its warm-up.
func (o options) sweep(corner string, cols, rows []string, cell func(row string, threads int) string) {
	head := []string{corner}
	for _, n := range o.threads {
		for _, prefix := range cols {
			head = append(head, fmt.Sprintf("%sT=%d", prefix, n))
		}
	}
	fmt.Printf("\n| %s |\n|%s\n", strings.Join(head, " | "), strings.Repeat("---|", len(head)))
	for _, row := range rows {
		fmt.Print("| ", row)
		for _, n := range o.threads {
			fmt.Print(" | ", strings.ReplaceAll(cell(row, n), "\t", " | "))
		}
		fmt.Println(" |")
	}
	for _, note := range tookTurns {
		fmt.Printf("\n%s\n", note)
	}
	tookTurns = tookTurns[:0]
}

func title(s string) {
	fmt.Printf("\n### %s\n", s)
}

// header prints a figure's title and, for a thread axis that goes past one,
// what the two-spinner probe reads as the figure starts.
func (o options) header(s string) {
	title(s)
	if slices.Max(o.threads) > 1 {
		ratio, _ := harness.WarmUntilParallel()
		fmt.Printf("\n(two-spinner ratio %.2f: 1.0 = two threads run on two cores, 2.0 = they take turns)\n", ratio)
	}
}

// tookTurns holds a tookTurnsNote per point of the table being computed whose
// threads still took turns after the warm-up; sweep prints them under it.
var tookTurns []string

const tookTurnsPrefix = "Threads took turns: "

func tookTurnsNote(name string, threads int, ratio float64) string {
	return fmt.Sprintf("%s%s at T=%d still read %.2f on the two-spinner probe when the warm-up gave up.", tookTurnsPrefix, name, threads, ratio)
}

// warm makes sure a point of more than one thread, named name, starts with
// its threads really overlapping (harness.WarmUntilParallel), and notes the
// point when the host never lets them.
func warm(name string, threads int) {
	if threads < 2 {
		return
	}
	if ratio, ok := harness.WarmUntilParallel(); !ok {
		tookTurns = append(tookTurns, tookTurnsNote(name, threads, ratio))
	}
}

// methodPoint is how every harness data point runs: warmed, then o.runs times
// on a fresh heap of words words (build lays its structure on it, the method
// is built on it, the structure is checked once the workers stop), the
// median-throughput run reported — the paper's discipline, §6.2.
func (o options) methodPoint(method string, threads, words int, build workload) *harness.Result {
	warm(o.label(method), threads)
	return harness.Median(o.runs, func() *harness.Result {
		m := mem.New(words)
		factory, check := build(m)
		res := harness.Run(harness.MustBuildMethod(method, m, o.policy()), harness.Config{
			Threads: threads, Duration: o.dur, Seed: o.seed,
		}, factory)
		o.mustHold(method, threads, check())
		return res
	})
}

// mustHold ends the program with a non-zero status when a run's check
// failed: a figure must not print numbers measured on a broken structure.
func (o options) mustHold(method string, threads int, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: -fig %s, %s at T=%d: check failed: %v\n", o.fig, o.label(method), threads, err)
	os.Exit(1)
}

// label names method's points in notes and failed checks, with o's variant.
func (o options) label(method string) string {
	if o.variant != "" {
		return method + " " + o.variant
	}
	return method
}
