// Command rtlemon runs an AVL-set workload with the live-observability
// layer attached and streams metrics while the workload executes: periodic
// delta rows (throughput, per-path commits, abort rate) on stdout, and a
// final snapshot in Prometheus text format or JSON. With -http it also
// serves /metrics (Prometheus) and /snapshot (JSON) live during the run,
// so the registry can be scraped mid-experiment.
//
// Examples:
//
//	rtlemon -method "FG-TLE(256)" -threads 8 -duration 5s
//	rtlemon -method TLE -threads 4 -duration 10s -http :9090
//	rtlemon -method RHNOrec -duration 3s -format json -trace 64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/mem"
	"rtle/internal/obs"
	"rtle/internal/server"
)

func main() {
	method := flag.String("method", "FG-TLE(256)", "synchronization method (Lock, TLE, HLE, RW-TLE, FG-TLE(N), FG-TLE(adaptive), ALE(N), NOrec, RHNOrec)")
	threads := flag.Int("threads", 4, "worker threads")
	duration := flag.Duration("duration", 5*time.Second, "run duration")
	interval := flag.Duration("interval", 500*time.Millisecond, "live sample interval (0 disables sampling)")
	keyRange := flag.Uint64("keyrange", 8192, "AVL-set key range")
	inserts := flag.Int("inserts", 20, "insert percentage")
	removes := flag.Int("removes", 20, "remove percentage")
	format := flag.String("format", "prom", "final snapshot format: prom or json")
	httpAddr := flag.String("http", "", "serve /metrics and /snapshot on this address during the run (e.g. :9090)")
	trace := flag.Int("trace", 1024, "path-transition trace capacity (negative disables)")
	attempts := flag.Int("attempts", core.DefaultAttempts, "HTM attempts before lock fallback")
	lazy := flag.Bool("lazy", false, "lazy lock subscription on the slow path")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	if err := checkFlags(*keyRange, *threads, *inserts, *removes, *format); err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry(obs.Config{TraceCapacity: *trace})
	policy := core.Policy{Attempts: *attempts, LazySubscription: *lazy, Observer: reg}

	m := mem.New(harness.DefaultSetHeapWords(*keyRange, *threads) + 1<<18)
	set := avl.New(m)
	harness.SeedSet(set, *keyRange)
	meth, err := harness.BuildMethod(*method, m, policy)
	if err != nil {
		fatal(err)
	}

	var admin *server.AdminServer
	if *httpAddr != "" {
		admin, err = server.StartAdmin(*httpAddr, newMux(reg))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rtlemon: serving /metrics and /snapshot on %s\n", admin.Addr())
	}

	fmt.Fprintf(os.Stderr, "rtlemon: %s, %d threads, %v, %d:%d:%d over range %d\n",
		meth.Name(), *threads, *duration, *inserts, *removes,
		100-*inserts-*removes, *keyRange)

	res := harness.Run(meth, harness.Config{
		Threads:  *threads,
		Duration: *duration,
		Seed:     *seed,
		Sample: harness.SampleConfig{
			Registry: reg,
			Interval: *interval,
			W:        os.Stdout,
		},
	}, harness.SetWorkerFactory(set, harness.SetMix{InsertPct: *inserts, RemovePct: *removes}, *keyRange))

	if err := set.CheckInvariants(core.Direct(m)); err != nil {
		fatal("TREE CORRUPTED: " + err.Error())
	}

	if admin != nil {
		// Let a final scrape land before the process exits.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := admin.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "rtlemon: http shutdown:", err)
		}
		cancel()
	}

	snap := reg.Snapshot()
	fmt.Fprintf(os.Stderr, "rtlemon: %d ops in %v (%.0f ops/ms); final snapshot follows\n",
		res.Total.Ops, res.Elapsed.Round(time.Millisecond), res.Throughput())
	switch *format {
	case "prom":
		err = snap.WritePrometheus(os.Stdout)
	case "json":
		err = snap.WriteJSON(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

// checkFlags rejects flag values the workload cannot run: an empty key
// range, no worker, or an operation mix that is not a split of 100 %.
func checkFlags(keyRange uint64, threads, inserts, removes int, format string) error {
	switch {
	case keyRange == 0:
		return errors.New("keyrange must be at least 1")
	case threads < 1:
		return errors.New("threads must be at least 1")
	case inserts < 0 || removes < 0:
		return errors.New("inserts and removes must not be negative")
	case inserts+removes > 100:
		return errors.New("inserts + removes must be at most 100")
	case format != "prom" && format != "json":
		return errors.New("format must be prom or json")
	}
	return nil
}

// newMux builds the live-scrape HTTP handler: /metrics serves the current
// registry snapshot in Prometheus text format, /snapshot as JSON.
func newMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		// A write error here means the scraper hung up; nothing to do.
		_ = reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A write error here means the client hung up; nothing to do.
		_ = reg.Snapshot().WriteJSON(w)
	})
	return mux
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "rtlemon:", v)
	os.Exit(2)
}
