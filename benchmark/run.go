package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Fixed load shape: two threads or connections on every host, so hosts
// compare; a host with fewer than two CPUs is stamped degraded.
const loadThreads = 2

// latencyEvery is the sampling period of per-operation latency on the
// in-process workloads (an operation there costs a few hundred ns, so
// timing each one would be a tenth of what is measured). Wire workloads
// time every operation.
const latencyEvery = 16

// runConfig is one invocation's settings, shared by every workload.
type runConfig struct {
	seed    uint64
	seconds float64       // timed seconds per workload, as given
	reps    int           // timed windows with tracing off
	repDur  time.Duration // length of one window (traced run: of one repetition)
	setups  int           // times set-up is repeated for setup_s
	warmup  time.Duration // closed-loop warm-up that ends each set-up
	trace   bool          // additionally: probes, traced repetition, reference runs
	quick   bool          // smoke sizes: no reference runs, short probes
	root    string        // checkout root (holds BENCHMARK.json)
	outDir  string        // result and trace files
	rtled   string        // built rtled binary (wire workloads)
}

// repResult is what one timed repetition measured.
type repResult struct {
	ops       uint64 // completed and verified
	attempted uint64
	failed    uint64 // failed, refused or unverifiable
	elapsed   time.Duration
	lat       [][]int64     // latency samples in ns, one sorted slice per client thread or slot
	cpu       time.Duration // CPU of the process hosting the data structure
	layer     map[string]float64
	bufs      []*traceBuf   // traced repetition only
	counts    []countRecord // traced repetition only
	// Wire repetitions only.
	writes       uint64  // acknowledged puts and deletes
	clientMeanUS float64 // mean latency over every sample
	lateGrowing  bool    // open loop: the generator's backlog grew over the run
}

func (r *repResult) opsPerSec() float64 { return ratio(float64(r.ops), r.elapsed.Seconds()) }

// latencyUS returns the q-quantile of latency as a client sees it, in µs:
// each client's own exact percentile, averaged over the clients. Pooling
// the samples instead would, on a workload whose clients differ
// (avl_lockheld: one always under the lock, one never), put a percentile on
// the boundary between two populations, where it flips from run to run.
func (r *repResult) latencyUS(q float64) float64 {
	var sum float64
	n := 0
	for _, l := range r.lat {
		if len(l) > 0 {
			sum += float64(percentile(l, q))
			n++
		}
	}
	return ratio(sum, float64(n)) / 1e3
}

// pooledLatency returns every client's samples in one sorted slice.
func (r *repResult) pooledLatency() []int64 { return sortedCopy(r.lat...) }

// instance is one set-up system under test: booted, seeded and warmed.
type instance interface {
	// rep runs one timed repetition; traced records spans of every 64th
	// operation.
	rep(dur time.Duration, seed uint64, traced bool) (*repResult, error)
	// verify runs the gates that need a quiescent system after the timed
	// repetitions; it returns how many checked items it attempted and how
	// many failed.
	verify() (attempted, failed uint64, err error)
	peakRSSMB() float64
	shape() map[string]any
	close()
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Name      string             `json:"name"`
	Shape     map[string]any     `json:"shape"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// workload is one named entry of BENCHMARK.json's workloads.
type workload struct {
	name  string
	setup func(cfg *runConfig, seed uint64) (instance, error)
	// extras runs the reference runs and workload-specific probes of the
	// traced mode, given the untraced repetition they compare against.
	extras func(cfg *runConfig, in instance, base *repResult, layer map[string]float64) error
}

// selfCPU returns this process's user and system CPU time so far.
func selfCPU() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func sortedCopy(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func meanOf(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += float64(v)
	}
	return sum / float64(len(vs))
}

// runWorkload sets the workload up cfg.setups times (the median is
// setup_s), runs the timed windows on the last instance, verifies, and in
// traced mode adds the per-layer table.
func runWorkload(w *workload, cfg *runConfig) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Correct: true, EndToEnd: map[string]summary{}}
	problem := func(format string, args ...any) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	var in instance
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			// Earlier instances exist only to time set-up again; collect
			// them so the footprint read below is one instance's.
			in.close()
			in = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		in, err = w.setup(cfg, cfg.seed+uint64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer in.close()
	res.Shape = in.shape()
	// Memory is read when set-up ends, before the timed load: the footprint
	// of the booted, seeded and warmed system. Read after the load it would
	// follow throughput wherever state grows with work done (the replicated
	// primary's in-memory log), and jump with the collector's heap steps.
	rssMB := in.peakRSSMB()

	series := map[string][]float64{}
	var base *repResult // the first untraced window (traced run: the untraced repetition)
	for i := 0; i < cfg.reps; i++ {
		r, err := in.rep(cfg.repDur, cfg.seed*1000003+uint64(i), false)
		if err != nil {
			return nil, fmt.Errorf("%s: window %d: %w", w.name, i, err)
		}
		if base == nil {
			base = r
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.failed > 0 {
			problem("window %d: %d of %d operations failed", i, r.failed, r.attempted)
		}
		if r.ops == 0 {
			return nil, fmt.Errorf("%s: window %d completed no operation", w.name, i)
		}
		series["ops_per_s"] = append(series["ops_per_s"], r.opsPerSec())
		series["cpu_us_per_op"] = append(series["cpu_us_per_op"], ratio(float64(r.cpu.Microseconds()), float64(r.ops)))
	}

	layer := map[string]float64{}
	if cfg.trace {
		for k, v := range base.layer {
			layer[k] = v
		}
		layer["bench.lat_p50_us"] = base.latencyUS(0.50)
		layer["bench.lat_p90_us"] = base.latencyUS(0.90)
		tr, err := in.rep(cfg.repDur, cfg.seed*1000003+101, true)
		if err != nil {
			return nil, fmt.Errorf("%s: traced repetition: %w", w.name, err)
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		if tr.failed > 0 {
			problem("traced repetition: %d of %d operations failed", tr.failed, tr.attempted)
		}
		layer["trace.overhead_ratio"] = ratio(tr.opsPerSec(), base.opsPerSec())
		if err := traceLayers(tr, layer); err != nil {
			problem("trace: %v", err)
		}
		res.TraceFile = fmt.Sprintf("%s/trace_%s.jsonl", cfg.outDir, w.name)
		if err := writeTrace(res.TraceFile, tr.bufs, tr.counts); err != nil {
			return nil, err
		}
		if w.extras != nil {
			if err := w.extras(cfg, in, base, layer); err != nil {
				return nil, fmt.Errorf("%s: reference runs: %w", w.name, err)
			}
		}
		if err := runProbes(cfg, layer); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}

	att, bad, err := in.verify()
	res.Attempted += att
	res.Failed += bad
	if err != nil {
		problem("verification: %v", err)
	}

	series["peak_rss_mb"] = []float64{rssMB}
	layer["bench.peak_rss_end_mb"] = in.peakRSSMB()
	series["setup_s"] = setupS
	layer["bench.failed_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	for _, m := range spec.EndToEnd {
		sum := summarize(m.Unit, series[m.Name])
		if m.Name != "setup_s" { // set-ups are not windows of one load: their median stands
			sum.Value = quiet(sum.Values, m.Better)
		}
		res.EndToEnd[m.Name] = sum
	}
	if cfg.trace {
		res.PerLayer = map[string]float64{}
		for _, m := range spec.PerLayer {
			res.PerLayer[m.Name] = layer[m.Name] // 0: the workload does not drive that layer
		}
		for k := range layer {
			if _, ok := res.PerLayer[k]; !ok {
				return nil, fmt.Errorf("%s: per-layer metric %q is not listed in BENCHMARK.json", w.name, k)
			}
		}
	}
	return res, nil
}

// traceLayers derives the trace metrics and checks the trace accounts for
// itself: summed self times must equal summed op span time within 5 %.
func traceLayers(tr *repResult, layer map[string]float64) error {
	spans, dropped := allSpans(tr.bufs)
	st := selfTimes(spans)
	op := st["op"]
	if op == nil || op.Count == 0 {
		return fmt.Errorf("no op spans recorded")
	}
	var self int64
	for _, s := range st {
		self += s.Self
	}
	if d := float64(self-op.Total) / float64(op.Total); d > 0.05 || d < -0.05 {
		return fmt.Errorf("self times sum to %d ns, op spans to %d ns", self, op.Total)
	}
	if dropped > 0 {
		return fmt.Errorf("%d spans dropped: buffers too small", dropped)
	}
	if sec := st["section"]; sec != nil {
		layer["core.method_self_ns"] = ratio(float64(sec.Self), float64(sec.Count))
	}
	if body := st["body"]; body != nil {
		layer["core.body_ns"] = ratio(float64(body.Total), float64(body.Count))
		var reads, writes float64
		for i := range spans {
			if spans[i].Name == "body" {
				reads += float64(spans[i].Reads)
				writes += float64(spans[i].Writes)
			}
		}
		layer["htm.reads_per_body"] = reads / float64(body.Count)
		layer["htm.writes_per_body"] = writes / float64(body.Count)
	}
	return nil
}
