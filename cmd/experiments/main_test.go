package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rtle/internal/htm"
	"rtle/internal/mem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/skeleton.golden from the current printer")

// skeleton reduces the program's output to what does not depend on the host:
// titles, header rows, row labels and the number of cells in each row. Every
// cell after a row's first that parses as a number (with or without a
// trailing %) becomes "#", and the two-spinner line loses its reading.
func skeleton(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "(two-spinner ratio "):
			line = "(two-spinner ratio #)"
		case line != "" && !strings.HasPrefix(line, "=== "):
			var cells []string
			for _, c := range strings.Split(line, "  ") { // tabwriter pads with two or more spaces
				if c = strings.TrimSpace(c); c == "" {
					continue
				}
				if _, err := strconv.ParseFloat(strings.TrimSuffix(c, "%"), 64); err == nil && len(cells) > 0 {
					c = "#"
				}
				cells = append(cells, c)
			}
			line = strings.Join(cells, "\t")
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSkeletonGolden runs every figure at smoke size through main itself and
// compares the printed tables' skeleton with the one recorded before the
// method-by-thread figures were moved onto one sweep.
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
