package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/skeleton.golden from the current printer")

// skeleton reduces the program's output to what does not depend on the host:
// titles, header rows, row labels and the number of cells in each row. Every
// table cell after a row's first that parses as a number (with or without a
// trailing %) becomes "#", the environment and two-spinner lines lose their
// readings, and the notes of points whose threads took turns go, with the
// blank line before each.
func skeleton(out string) string {
	var lines []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, tookTurnsPrefix):
			if n := len(lines); n > 0 && lines[n-1] == "" {
				lines = lines[:n-1]
			}
			continue
		case strings.HasPrefix(line, "Environment: "):
			line = "Environment: #"
		case strings.HasPrefix(line, "(two-spinner ratio "):
			line = "(two-spinner ratio #)"
		case strings.HasPrefix(line, "| "):
			cells := tableCells(line)
			for i, c := range cells[1:] {
				if _, err := strconv.ParseFloat(strings.TrimSuffix(c, "%"), 64); err == nil {
					cells[i+1] = "#"
				}
			}
			line = "| " + strings.Join(cells, " | ") + " |"
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n") + "\n"
}

// tableCells splits a markdown table line into its trimmed cells.
func tableCells(line string) []string {
	cells := strings.Split(strings.Trim(line, "|"), "|")
	for i, c := range cells {
		cells[i] = strings.TrimSpace(c)
	}
	return cells
}

// TestSkeletonGolden runs every figure at smoke size through main itself and
// compares the printed tables' skeleton with testdata/skeleton.golden.
func TestSkeletonGolden(t *testing.T) {
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	// main registers its flags on flag.CommandLine: give it a fresh one so the
	// test can run more than once in a process (-count).
	args, stdout, cmdline := os.Args, os.Stdout, flag.CommandLine
	os.Args = []string{"experiments", "-fig", "all", "-quick", "-threads", "1,2", "-dur", "10ms"}
	os.Stdout = tmp
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
	os.Args, os.Stdout, flag.CommandLine = args, stdout, cmdline

	raw, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	got := skeleton(string(raw))
	golden := filepath.Join("testdata", "skeleton.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output skeleton differs from %s (regenerate with -update only for a deliberate change)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestSkeletonDropsTookTurnsNotes: whether a point's threads took turns
// depends on the host, so the skeleton of a table with a note under it is the
// skeleton of the table alone.
func TestSkeletonDropsTookTurnsNotes(t *testing.T) {
	table := "\n### Fig. 5\n\n| method | T=1 | T=2 |\n|---|---|---|\n| TLE | 1.00 | 1.52 |\n"
	next := "\n### Fig. 6\n"
	noted := table + "\n" + tookTurnsNote("TLE", 2, 1.93) + "\n" + next
	if got, want := skeleton(noted), skeleton(table+next); got != want {
		t.Errorf("skeleton with a note:\n%s\nwithout:\n%s", got, want)
	}
}

// recordMarker is the line of EXPERIMENTS.md below which `make experiments`
// writes the record; the Makefile names the same line.
const recordMarker = "<!-- make experiments writes everything below this line. -->"

// TestRecordTablesWellFormed reads EXPERIMENTS.md's generated tail and checks
// that every table in it is one the program prints: a header, a separator of
// as many cells, rows of as many cells, none empty, and for each column
// prefix one T=n column per thread count its run's command names.
func TestRecordTablesWellFormed(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	head, tail, ok := strings.Cut(string(raw), "\n"+recordMarker+"\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no line %q", recordMarker)
	}
	first := strings.Count(head, "\n") + 3 // EXPERIMENTS.md's line number of tail's first line
	lines := strings.Split(tail, "\n")
	var threads []string
	runs, tables := 0, 0
	for i := 0; i < len(lines); i++ {
		if cmd, ok := strings.CutPrefix(lines[i], "## `experiments "); ok {
			runs, threads = runs+1, nil
			args := strings.Fields(strings.TrimSuffix(cmd, "`"))
			if j := slices.Index(args, "-threads"); j >= 0 && j+1 < len(args) {
				threads = strings.Split(args[j+1], ",")
			}
			if threads == nil {
				t.Errorf("EXPERIMENTS.md:%d: the run's command names no -threads", first+i)
			}
			continue
		}
		if !strings.HasPrefix(lines[i], "|") {
			continue
		}
		start := i
		for i+1 < len(lines) && strings.HasPrefix(lines[i+1], "|") {
			i++
		}
		tables++
		if runs == 0 {
			t.Errorf("EXPERIMENTS.md:%d: a table before any run's header", first+start)
		}
		if err := checkTable(lines[start:i+1], threads); err != nil {
			t.Errorf("EXPERIMENTS.md:%d: %v", first+start, err)
		}
	}
	if runs == 0 || tables == 0 {
		t.Errorf("EXPERIMENTS.md's generated tail holds %d runs and %d tables", runs, tables)
	}
}

// checkTable checks one markdown table of the record against the thread
// counts of its run.
func checkTable(table, threads []string) error {
	if len(table) < 3 {
		return fmt.Errorf("a table of %d lines: want a header, a separator and rows", len(table))
	}
	header := tableCells(table[0])
	if sep := tableCells(table[1]); len(sep) != len(header) || slices.ContainsFunc(sep, func(c string) bool { return c != "---" }) {
		return fmt.Errorf("separator %q does not match the header's %d cells", table[1], len(header))
	}
	for j, row := range table[2:] {
		cells := tableCells(row)
		if len(cells) != len(header) {
			return fmt.Errorf("row %d has %d cells, its header %d", j+1, len(cells), len(header))
		}
		if slices.Contains(cells, "") {
			return fmt.Errorf("row %d has an empty cell: %q", j+1, row)
		}
	}
	cols := header[1:]
	if len(threads) == 0 || len(cols)%len(threads) != 0 {
		return fmt.Errorf("%d columns for the thread counts %v", len(cols), threads)
	}
	per := len(cols) / len(threads)
	for k, col := range cols {
		prefix, _, _ := strings.Cut(cols[k%per], "T=")
		if want := prefix + "T=" + threads[k/per]; col != want {
			return fmt.Errorf("column %d is %q, want %q", k+1, col, want)
		}
	}
	return nil
}

// TestSetPointsRunOnce: Figs. 6–10 and the ablations are views of Fig. 5's
// 8192-key 20:20:60 panel, so after that panel over Fig. 5's full method list
// they start no run of a (method, 8192, 20:20:60, T) point — A2's eager row,
// A4's default budget and A6's TLE and FG-TLE(1024) rows included. What they
// add is A2's lazy row, A3's panel, A4's other budgets and A6's HLE and
// ALE(1024) rows; the panel's own base is its Lock T=1 cell.
func TestSetPointsRunOnce(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()

	opt := options{threads: []int{1}, dur: time.Millisecond, seed: 1, runs: 1, interleave: 4, spurious: 0.01,
		setRuns: map[setPoint]*harness.Result{}}
	opt.fig = "5"
	fig5Panel(opt, slowPathKeyRange, slowPathMix, harness.MethodNames)
	if want := len(harness.MethodNames); len(opt.setRuns) != want {
		t.Fatalf("Fig. 5's panel ran %d set points, want %d (its base is its Lock T=1 cell)", len(opt.setRuns), want)
	}
	fig5Runs := maps.Clone(opt.setRuns)
	for _, f := range []struct {
		name string
		run  func(options)
	}{{"6", fig6}, {"7", fig7}, {"8", fig8}, {"9", fig9}, {"10", fig10}, {"ablation", figAblation}} {
		opt.fig = f.name
		f.run(opt)
	}

	var added []setPoint
	for k, res := range opt.setRuns {
		if prev, ok := fig5Runs[k]; !ok {
			added = append(added, k)
		} else if prev != res {
			t.Errorf("%+v: a later figure replaced Fig. 5's run", k)
		}
	}
	updates := harness.SetMix{InsertPct: 50, RemovePct: 50}
	want := []setPoint{
		{"FG-TLE(1024)", slowPathKeyRange, slowPathMix, 1, "lazy"},
		{"FG-TLE(1)", 512, updates, 1, ""},
		{"FG-TLE(8192)", 512, updates, 1, ""},
		{"FG-TLE(adaptive)", 512, updates, 1, ""},
		{"HLE", slowPathKeyRange, slowPathMix, 1, ""},
		{"ALE(1024)", slowPathKeyRange, slowPathMix, 1, ""},
		{"TLE", slowPathKeyRange, slowPathMix, 1, "attempts=1"},
		{"TLE", slowPathKeyRange, slowPathMix, 1, "attempts=2"},
		{"TLE", slowPathKeyRange, slowPathMix, 1, "attempts=10"},
	}
	byName := func(a, b setPoint) int { return strings.Compare(a.method+a.variant, b.method+b.variant) }
	slices.SortFunc(added, byName)
	slices.SortFunc(want, byName)
	if !slices.Equal(added, want) {
		t.Errorf("Figs. 6–10 and the ablations started runs of\n%+v\nwant\n%+v", added, want)
	}
}

// TestSpuriousStreamsDifferPerThread: the threads of one run suffer their
// own spurious aborts. Two Txs built from one policy, as two threads of a
// figure point are, must not draw the same abort sequence.
func TestSpuriousStreamsDifferPerThread(t *testing.T) {
	pol := options{spurious: 0.3}.policy()
	m := mem.New(1 << 12)
	a := m.AllocLines(1)
	draw := func() []htm.AbortReason {
		tx := htm.NewTx(m, pol.HTM)
		out := make([]htm.AbortReason, 64)
		for i := range out {
			out[i] = tx.Run(func(tx *htm.Tx) { tx.Read(a) })
		}
		return out
	}
	first, second := draw(), draw()
	if slices.Equal(first, second) {
		t.Fatalf("two threads drew the same %d outcomes: %v", len(first), first)
	}
	if !slices.Contains(first, htm.Spurious) {
		t.Fatal("spurious 0.3 aborted none of 64 attempts")
	}
}

// TestAVLCheckCatchesCorruption: the check every AVL point runs after its
// workers stop passes on the seeded set and fails once a word of the tree
// is overwritten through core.Direct.
func TestAVLCheckCatchesCorruption(t *testing.T) {
	const keyRange, words = 512, 1 << 16
	m := mem.New(words)
	_, check := avlWorkload(keyRange, func(*avl.Set) harness.WorkerFactory { return nil })(m)
	if err := check(); err != nil {
		t.Fatalf("the seeded set fails its check: %v", err)
	}
	// The set's first line, which holds the root pointer, is the first any
	// fresh heap hands out; a node's key is its first word.
	head := mem.New(words).AllocLines(1)
	c := core.Direct(m)
	root := mem.Addr(c.Read(head))
	c.Write(root, keyRange) // above every key in the root's right subtree
	if err := check(); err == nil {
		t.Fatal("the check passed a tree whose root key exceeds its right subtree's")
	}
}
