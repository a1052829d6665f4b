// Command rtleload drives load against a live rtled server and validates
// what comes back over the wire: Conns×Pipeline sequential logical clients
// multiplexed over Conns pipelined connections record a ticket-stamped
// history of every single operation, and after the run the history is
// checked for linearizability with internal/check's WGL checker (per-key
// partitions for set/map, whole-history for bank). Read-only witness
// batches additionally validate the batch atomicity contract (duplicate
// reads inside one batch must agree; a bank batch must observe conserved
// total money).
//
// The process exits non-zero if the history is not linearizable, a witness
// is violated, or the run errors — so CI can gate on it directly.
//
// -check seeds its sequential models from a pre-run server snapshot: the
// consistent cut at log seq S stands in for the empty initial state, so
// checked runs compose — a second run against the same warm server is as
// sound as the first. Load without -check fetches no snapshot.
//
// Failover runs: -addr accepts a comma-separated address list (primary
// first). With more than one address each connection becomes a failover
// client that rides through server death, an operation whose response was
// lost is recorded as pending — the checker must then explain it both as
// executed and as never-executed — and StatusNotPrimary rejections are
// retried until a promotion lands. The longest disruption window and the
// pending/retry counts are reported after the run.
//
// Examples:
//
//	rtleload -addr 127.0.0.1:7632 -workload set -conns 4 -pipeline 8 -ops 20000
//	rtleload -workload map -read-pct 50 -batch-pct 10 -check=true
//	rtleload -workload bank -keys 16 -conns 2 -pipeline 4 -ops 2000
//	rtleload -workload set -rate 50000 -duration 5s -check=false
//	rtleload -addr 127.0.0.1:7632,127.0.0.1:7633 -workload map -ops 40000
//	rtleload -workload set -key-dist zipf -zipf-s 1.2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rtle/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7632", "rtled server address, or a comma-separated failover list (primary first)")
	workload := flag.String("workload", "set", "served data structure: "+strings.Join(server.Workloads, ", "))
	conns := flag.Int("conns", 4, "TCP connections")
	pipeline := flag.Int("pipeline", 8, "pipelined slots per connection")
	ops := flag.Int("ops", 4000, "recorded single operations across all slots")
	duration := flag.Duration("duration", 0, "optional deadline for the run (0 = ops-bounded only)")
	rate := flag.Int("rate", 0, "open-loop aggregate ops/sec (0 = closed loop)")
	readPct := flag.Int("read-pct", 90, "read percentage of single operations")
	batchPct := flag.Int("batch-pct", 0, "percentage of issues that send a witness batch")
	batchSize := flag.Int("batch-size", 8, "witness batch length (set/map)")
	keys := flag.Int("keys", 0, "key space (set/map) or account count (bank); must match the server; 0 picks the default")
	keyDist := flag.String("key-dist", "uniform", "key distribution: uniform or zipf (key 0 hottest)")
	zipfS := flag.Float64("zipf-s", 1.1, "zipf exponent (with -key-dist zipf; larger is more skewed)")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	checkFlag := flag.Bool("check", true, "check the recorded history for linearizability")
	flag.Parse()

	addrs := strings.Split(*addr, ",")
	cfg := server.LoadConfig{
		Addrs:      addrs,
		Workload:   *workload,
		Conns:      *conns,
		Pipeline:   *pipeline,
		Ops:        *ops,
		Duration:   *duration,
		RatePerSec: *rate,
		ReadPct:    *readPct,
		BatchPct:   *batchPct,
		BatchSize:  *batchSize,
		Keys:       *keys,
		KeyDist:    *keyDist,
		ZipfS:      *zipfS,
		Seed:       *seed,
		Check:      *checkFlag,
	}
	fmt.Fprintf(os.Stderr, "rtleload: %s on %s, %d conns x %d pipeline, %d ops, %d%% reads, %d%% batches\n",
		*workload, *addr, *conns, *pipeline, *ops, *readPct, *batchPct)

	res, err := server.RunLoad(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("rtleload: server advertises %d shard(s)\n", res.Shards)
	fmt.Printf("rtleload: %d ops in %v (%.0f ops/sec), %d witness batches, %d rejected\n",
		res.Ops, res.Elapsed.Round(time.Millisecond), res.Throughput(), res.Batches, res.Rejected)
	fmt.Printf("rtleload: latency p50 %.3gms p99 %.3gms max-bucket %.3gms\n",
		res.Percentile(0.50)*1e3, res.Percentile(0.99)*1e3, res.Percentile(1.0)*1e3)
	if len(addrs) > 1 {
		fmt.Printf("rtleload: failover: %d reconnects, %d pending (cut) ops, %d not-primary retries, longest outage %v\n",
			res.Reconnects, res.Cut, res.NotPrimaryRetries, res.FailoverWindow.Round(time.Millisecond))
	}

	exit := 0
	if len(res.WitnessViolations) > 0 {
		exit = 1
		for _, v := range res.WitnessViolations {
			fmt.Println("rtleload: WITNESS VIOLATION:", v)
		}
	}
	if res.Checked {
		fmt.Printf("rtleload: check seeded from server snapshot at seq %d\n", res.SeedSeq)
		if res.Linearizable {
			fmt.Println("rtleload: history is linearizable")
		} else {
			exit = 1
			fmt.Println("rtleload: NOT LINEARIZABLE:", res.CheckDetail)
		}
	}
	os.Exit(exit)
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "rtleload:", v)
	os.Exit(2)
}
