// Command benchmark is the repository's one canonical benchmark. It drives
// the stack only through public entry points — rtle, internal/harness and
// internal/avl in-process, real rtled child processes over loopback TCP —
// and reports the end-to-end and per-layer metrics BENCHMARK.json names.
// See README.md in this directory for the metric dictionary and limits.
//
//	go run -C benchmark . -seed 1                  # all workloads, end-to-end
//	go run -C benchmark . -seed 1 -trace 1         # + per-layer table and span files
//	go run -C benchmark . -workload wire_open ...  # one workload (the driver's form)
//	go run -C benchmark . -compare a.json b.json   # classify every metric
//	go run -C benchmark . -selfcheck               # two suites must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// windowDur is the length of one timed window. -seconds is split into
// windows of this length, each measured and verified on its own; a metric's
// value is the mean of the best tenth of them (quiet, in stats.go, says
// why). Half a second holds over 10^4 operations of the slowest workload
// and many garbage-collector cycles, so a window's value is the program's,
// and is short enough that a run on a disturbed host still has whole
// windows the host left alone.
const windowDur = 500 * time.Millisecond

// traceRepDur is the length of each repetition of a traced run: the
// untraced and the traced one, and every reference run.
const traceRepDur = 2 * time.Second

// timedSetups is how many times a run sets the workload up; setup_s is the
// median and the last instance is the one measured.
const timedSetups = 5

// warmupDur is the closed-loop warm-up that ends every set-up. It is part
// of setup_s: half a second of it keeps a set-up long enough that one
// scheduling hiccup of the host does not move the median of five.
const warmupDur = 500 * time.Millisecond

// workloads lists every workload. The first four are the ones
// BENCHMARK.json names and the driver runs; the driver's time limit (4 + 22
// runs a workload, 3420 s in all) leaves room for no more at a run length
// that holds steady on a shared host. The rest run in the suite only (no
// -workload), and README.md says why each stays out: avl_contended moves
// with the host like avl_mixed and adds no layer; wire_closed and
// wire_repl_sync saturate two cores with four to six busy threads, so their
// throughput follows how the kernel pairs the threads.
var workloads = []*workload{
	{name: "avl_mixed", setup: avlSetup(avlShape{keys: 8192, insertPct: 20, removePct: 20}), extras: avlExtras(true)},
	{name: "avl_lockheld", setup: avlSetup(avlShape{keys: 8192, unfriendly: true}), extras: avlExtras(false)},
	{name: "guard_counters", setup: guardSetup, extras: guardExtras},
	{name: "wire_open", setup: wireSetup(wireShape{getPct: 90, putPct: 5, slots: 32, rate: 60_000}), extras: wireExtras},
	{name: "avl_contended", setup: avlSetup(avlShape{keys: 256, insertPct: 50, removePct: 50}), extras: avlExtras(false)},
	{name: "wire_closed", setup: wireSetup(wireShape{getPct: 90, putPct: 5, slots: 16}), extras: wireExtras},
	{name: "wire_repl_sync", setup: wireSetup(wireShape{getPct: 50, putPct: 25, slots: 16, repl: true}), extras: wireExtras},
}

// resultFile is what -out receives: the stamp, the settings and every
// workload's repetitions.
type resultFile struct {
	Stamp     stamp             `json:"stamp"`
	Seed      uint64            `json:"seed"`
	Reps      int               `json:"reps"`
	RepSecs   float64           `json:"rep_seconds"`
	Setups    int               `json:"setups"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick"`
	BuildSecs float64           `json:"build_s"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all seven, one process each)")
		seed      = flag.Uint64("seed", 1, "derives every PRNG stream")
		seconds   = flag.Float64("seconds", 0, "timed seconds per workload, split into windows of 0.5 s (default: BENCHMARK.json run_seconds)")
		trace     = flag.Int("trace", 0, "1: per-layer run (probes, traced repetition, reference runs) instead of the end-to-end run")
		quick     = flag.Bool("quick", false, "smoke sizes: 1 window of 0.5 s, no reference runs")
		out       = flag.String("out", "", "directory for result.json, span files and scratch (default: benchmark/out)")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments and exit")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of three suites and exit 1 if any end-to-end pair of set medians disagrees beyond its bound")
		rtled     = flag.String("rtled", "", "use this prebuilt rtled binary instead of building cmd/rtled")
	)
	flag.Parse()

	root, err := findRoot()
	if err == nil {
		err = loadSpec(root)
	}
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	cfg := &runConfig{seed: *seed, repDur: windowDur, setups: timedSetups, warmup: warmupDur, trace: *trace != 0, quick: *quick, root: root, outDir: *out, rtled: *rtled}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg.seconds = *seconds
	cfg.reps = max(1, int(*seconds/windowDur.Seconds()+0.5))
	if cfg.trace {
		cfg.reps, cfg.repDur = 1, traceRepDur
	}
	if cfg.quick {
		cfg.reps, cfg.setups, cfg.repDur, cfg.warmup = 1, 1, windowDur, 50*time.Millisecond
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(root, "benchmark", "out")
	}
	if cfg.outDir, err = filepath.Abs(cfg.outDir); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}

	// An interrupted run still reaps its children.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(130)
	}()

	st := takeStamp(root)
	if st.Degraded {
		fmt.Println("DEGRADED:", st.DegradedWhy)
	}
	var buildS float64
	if cfg.rtled == "" {
		if buildS, err = buildRtled(cfg); err != nil {
			return fail(err)
		}
	}
	file := &resultFile{
		Stamp: st, Seed: cfg.seed, Reps: cfg.reps, RepSecs: cfg.repDur.Seconds(),
		Setups: cfg.setups, Trace: cfg.trace, Quick: cfg.quick, BuildSecs: buildS,
	}

	if *name != "" {
		// The driver's form: one workload in this process, and the last
		// line of output is the one JSON object the driver reads.
		for _, w := range workloads {
			if w.name != *name {
				continue
			}
			res, err := runWorkload(w, cfg)
			if err != nil {
				return fail(err)
			}
			if res.PerLayer != nil {
				res.PerLayer["bench.build_s"] = buildS
			}
			printWorkload(res, cfg)
			file.Workloads = []*workloadResult{res}
			if err := writeResult(filepath.Join(cfg.outDir, "result.json"), file); err != nil {
				return fail(err)
			}
			printContractLine(res, cfg.trace)
			return 0
		}
		return fail(fmt.Errorf("unknown workload %q", *name))
	}

	if *selfcheck {
		return selfCheck(cfg, file)
	}
	if err := runSuite(cfg, file, cfg.outDir, workloads); err != nil {
		return fail(err)
	}
	if err := writeResult(filepath.Join(cfg.outDir, "result.json"), file); err != nil {
		return fail(err)
	}
	for _, w := range file.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	stopAllChildren()
	return 2
}

// buildRtled compiles cmd/rtled from the checkout's source into the out
// directory. The time is reported (bench.build_s) and kept out of setup_s.
func buildRtled(cfg *runConfig) (float64, error) {
	cfg.rtled = filepath.Join(cfg.outDir, "bin", "rtled")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", cfg.rtled, "rtle/cmd/rtled")
	cmd.Dir = filepath.Join(cfg.root, "benchmark")
	if b, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building rtled: %w\n%s", err, b)
	}
	return time.Since(t0).Seconds(), nil
}

// runSuite runs the given workloads, each in a process of its own — this
// program again with -workload — so a workload's peak memory, heap and
// garbage-collector state are what the driver's single-workload runs see,
// not what earlier workloads left behind. With cfg.trace each workload
// gets a second, traced process for the per-layer table: end-to-end values
// never come from a process that traced. Results are gathered into file.
func runSuite(cfg *runConfig, file *resultFile, outDir string, which []*workload) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(name string, traced bool) (*workloadResult, error) {
		dir, trace := filepath.Join(outDir, name), "0"
		if traced {
			dir, trace = dir+"_traced", "1"
		}
		args := []string{
			"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", trace, "-out", dir, "-rtled", cfg.rtled,
		}
		if cfg.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		// A suite that dies takes its workload process, and through it the
		// rtled children, with it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		out, err := cmd.Output()
		// The child's last line is the driver's JSON object; the table
		// above it is what a reader wants.
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		f, err := readResult(filepath.Join(dir, "result.json"))
		if err != nil {
			return nil, err
		}
		return f.Workloads[0], nil
	}
	for _, w := range which {
		res, err := one(w.name, false)
		if err != nil {
			return err
		}
		if cfg.trace {
			tr, err := one(w.name, true)
			if err != nil {
				return err
			}
			res.PerLayer, res.TraceFile = tr.PerLayer, tr.TraceFile
			res.PerLayer["bench.build_s"] = file.BuildSecs // the child was handed the binary
			res.Correct = res.Correct && tr.Correct
			res.Attempted += tr.Attempted
			res.Failed += tr.Failed
			res.Problems = append(res.Problems, tr.Problems...)
		}
		file.Workloads = append(file.Workloads, res)
	}
	return nil
}

func writeResult(path string, file *resultFile) error {
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	return nil
}

// printWorkload prints every metric by name with its unit. End-to-end
// metrics of a run that failed verification are withheld: a number from
// an unverified run is not a measurement.
func printWorkload(res *workloadResult, cfg *runConfig) {
	shape, _ := json.Marshal(res.Shape) // a map of strings and numbers always marshals
	fmt.Printf("\n== %s  seed %d  %d x %.1fs  %s\n", res.Name, cfg.seed, cfg.reps, cfg.repDur.Seconds(), shape)
	fmt.Printf("   verification: %s, %d checked, %d failed\n", verdict(res.Correct), res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Println("   PROBLEM:", p)
	}
	if !res.Correct {
		fmt.Println("   metrics withheld: the run is unverified")
		return
	}
	if !cfg.trace {
		fmt.Printf("   %-16s %-6s %14s %14s %14s %14s %8s %3s\n", "end-to-end", "unit", "value", "median", "min", "max", "iqr/med", "n")
		for _, m := range spec.EndToEnd {
			s := res.EndToEnd[m.Name]
			fmt.Printf("   %-16s %-6s %14.4f %14.4f %14.4f %14.4f %7.2f%% %3d\n", m.Name, m.Unit, s.Value, s.Median, s.Min, s.Max, 100*s.spread(), s.N)
		}
		return
	}
	fmt.Printf("   %-34s %-8s %16s\n", "per-layer", "unit", "value")
	for _, m := range spec.PerLayer {
		fmt.Printf("   %-34s %-8s %16.4f\n", m.Name, m.Unit, res.PerLayer[m.Name])
	}
	fmt.Println("   spans:", res.TraceFile)
}

func verdict(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

// printContractLine prints the driver's result object: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printContractLine(res *workloadResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range spec.PerLayer {
			metrics[m.Name] = value{finite(res.PerLayer[m.Name]), m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			metrics[m.Name] = value{finite(res.EndToEnd[m.Name].Value), m.Unit}
		}
	}
	b, _ := json.Marshal(struct { // strings, numbers and bools always marshal
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	fmt.Println(string(b))
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
