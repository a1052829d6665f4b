// Command rtled serves one elided data structure (AVL set, hash map, or
// bank) over TCP behind any of the repository's synchronization methods,
// speaking the rtled/1 pipelined binary protocol (see internal/server's
// package documentation). With -shards N the key space is partitioned into
// N independent instances by consistent hash, each with a pool of -workers
// sections; single-key requests route to their shard and cross-shard
// requests take an ordered-drain slow path. Each connection costs one
// goroutine: its reader folds up to -coalesce consecutive operations of a
// pipelined burst that route to one shard into one shared atomic block,
// runs it on a section borrowed from that shard — or runs a cross-shard
// request itself under the involved shards' exclusive gates, taken in
// ascending order — and writes the burst's answers in one write.
// Nothing is refused for load: a client that outpaces the server is slowed
// by TCP on its own connection. SIGINT/SIGTERM drain gracefully: accepted
// requests on every shard are answered on the wire before the listener and
// connections close.
//
// With -http it serves /metrics (the obs registry's rtle_* execution
// series concatenated with the wire-level rtled_* series) and /snapshot
// (registry JSON) for live scraping. With -fault-plan (inline JSON or
// @file) a fault director is wired into the method, so chaos experiments
// run over the wire exactly as they do in-process.
//
// Replication: a primary started with -repl-ack or -repl-log appends every
// committed mutating block to an ordered log (file-backed when -repl-log
// names a path) and streams it to subscribed replicas; -repl-ack sync
// holds each write's response until a replica acknowledged its entry. A
// server started with -replica-of follows that primary, answering
// StatusNotPrimary to clients until POST /promote (or, on unix, SIGUSR1)
// flips it to primary — the failover handshake scripts/e2e.sh exercises
// with a SIGKILL mid-run.
//
// Snapshots: every server answers OpSnapshot with a consistent cut of its
// full state, taken under the shard gates and stamped with the replication
// log sequence (warm checker seeding, replica fast-bootstrap). -snap-file
// names the durable snapshot restored at boot and rewritten by compaction
// (-compact-every N, or POST /compact), which truncates the file log below
// the snapshot's sequence; POST /reshard?shards=M rebuilds the serving
// plane at M shards through the same capture/restore path, live.
//
// Examples:
//
//	rtled -workload set -method "FG-TLE(256)" -workers 8
//	rtled -workload map -shards 4 -workers 2 -http :9090
//	rtled -workload bank -keys 16 -method RHNOrec -http :9090
//	rtled -addr 127.0.0.1:0 -fault-plan '{"seed":7,"begin_prob":0.1}'
//	rtled -workload map -repl-ack sync -repl-log /tmp/rtle.log
//	rtled -addr 127.0.0.1:7633 -workload map -replica-of 127.0.0.1:7632
//	rtled -workload map -repl-log /tmp/rtle.log -snap-file /tmp/rtle.snap -compact-every 10000
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/obs"
	"rtle/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7632", "TCP listen address (port 0 picks a free port)")
	workload := flag.String("workload", "set", "served data structure: "+strings.Join(server.Workloads, ", "))
	method := flag.String("method", "FG-TLE(256)", "synchronization method (Lock, TLE, HLE, RW-TLE, FG-TLE(N), FG-TLE(adaptive), ALE(N), NOrec, RHNOrec)")
	shards := flag.Int("shards", 1, "independent ADT partitions (consistent-hash routed)")
	workers := flag.Int("workers", 4, "sections per shard: concurrent atomic blocks a shard runs")
	coalesce := flag.Int("coalesce", 8, "maximum single ops per shared atomic block, the longest run a reader admits (1: uncoalesced)")
	keys := flag.Int("keys", 0, "key space (set/map) or account count (bank); 0 picks the default")
	attempts := flag.Int("attempts", core.DefaultAttempts, "HTM attempts before lock fallback")
	lazy := flag.Bool("lazy", false, "lazy lock subscription on the slow path")
	planStr := flag.String("fault-plan", "", "fault plan: inline JSON or @file")
	httpAddr := flag.String("http", "", "serve /metrics, /snapshot and /promote on this address (e.g. :9090)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	replicaOf := flag.String("replica-of", "", "follow the primary at this address (serve StatusNotPrimary until promoted)")
	replAck := flag.String("repl-ack", "", "replication ack mode: async or sync (implies replication)")
	replLog := flag.String("repl-log", "", "file-backed replication log path (implies replication; empty keeps the log in memory)")
	snapFile := flag.String("snap-file", "", "durable snapshot path: restored at boot, rewritten by compaction")
	compactEvery := flag.Int("compact-every", 0, "auto-compact when the replication log holds this many entries above its floor (needs -snap-file; implies replication)")
	flag.Parse()

	var plan *fault.Plan
	if *planStr != "" {
		text := *planStr
		if strings.HasPrefix(text, "@") {
			b, err := os.ReadFile(text[1:])
			if err != nil {
				fatal(err)
			}
			text = string(b)
		}
		p, err := fault.ParsePlan(text)
		if err != nil {
			fatal(err)
		}
		plan = &p
	}

	reg := obs.NewRegistry(obs.Config{})
	srv, err := server.New(server.Config{
		Addr:         *addr,
		Workload:     *workload,
		Method:       *method,
		Shards:       *shards,
		Workers:      *workers,
		Coalesce:     *coalesce,
		Keys:         *keys,
		Policy:       core.Policy{Attempts: *attempts, LazySubscription: *lazy, Observer: reg},
		Plan:         plan,
		ReplicaOf:    *replicaOf,
		ReplAck:      *replAck,
		ReplLog:      *replLog,
		SnapFile:     *snapFile,
		CompactEvery: *compactEvery,
	})
	if err != nil {
		fatal(err)
	}

	bound, err := srv.Listen()
	if err != nil {
		fatal(err)
	}
	// The e2e harness parses this line to find the bound port.
	fmt.Printf("rtled: listening on %s (%s over %s, %d shards x %d workers)\n",
		bound, srv.MethodName(), srv.Workload(), srv.Shards(), *workers)
	if *replicaOf != "" {
		fmt.Fprintf(os.Stderr, "rtled: replica of %s (%s to take over)\n", *replicaOf, promoteHint)
	}

	var admin *server.AdminServer
	if *httpAddr != "" {
		admin, err = server.StartAdmin(*httpAddr, newMux(reg, srv))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rtled: serving /metrics and /snapshot on %s\n", admin.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if promoteSignal != nil {
		signal.Notify(sig, promoteSignal)
	}
loop:
	for {
		select {
		case s := <-sig:
			if s == promoteSignal {
				promote(srv)
				continue
			}
			fmt.Fprintf(os.Stderr, "rtled: %v, draining\n", s)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "rtled: drain:", err)
			}
			if admin != nil {
				if err := admin.Shutdown(ctx); err != nil {
					fmt.Fprintln(os.Stderr, "rtled: admin drain:", err)
				}
			}
			<-done
			break loop
		case err := <-done:
			if err != nil {
				fatal(err)
			}
			break loop
		}
	}

	m := srv.Metrics()
	fmt.Fprintf(os.Stderr, "rtled: served %d sections, %d coalesced ops, %d cross-shard ops\n",
		m.Sections(), m.Coalesced(), m.CrossShard())
	if d := srv.Director(); d != nil {
		fmt.Fprintf(os.Stderr, "rtled: fault director injected %d aborts, %d lock spikes\n",
			d.TotalInjected(), d.LockSpins())
	}
}

// promote flips a replica to primary, logging the takeover sequence on
// stdout so harnesses can confirm the handoff landed.
func promote(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seq, err := srv.Promote(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtled: promote:", err)
		return
	}
	fmt.Printf("rtled: promoted to primary at seq %d\n", seq)
}

// newMux builds the admin handler: /metrics concatenates the execution
// registry's Prometheus series with the wire-level server series under one
// scrape; /snapshot serves the registry as JSON; POST /promote flips a
// replica to primary (the HTTP twin of SIGUSR1, for orchestrators without
// signal access); POST /reshard?shards=M rebuilds the serving plane at M
// shards through a gate-held snapshot, live; POST /compact writes the
// durable snapshot and truncates the replication log below it.
func newMux(reg *obs.Registry, srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		// A write error here means the scraper hung up; nothing to do.
		_ = reg.Snapshot().WritePrometheus(w)
		// Same scrape, same hung-up scraper; nothing to do.
		_ = srv.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A write error here means the client hung up; nothing to do.
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "promote requires POST", http.StatusMethodNotAllowed)
			return
		}
		seq, err := srv.Promote(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Printf("rtled: promoted to primary at seq %d\n", seq)
		fmt.Fprintf(w, "promoted to primary at seq %d\n", seq)
	})
	mux.HandleFunc("/reshard", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "reshard requires POST", http.StatusMethodNotAllowed)
			return
		}
		n, err := strconv.Atoi(r.URL.Query().Get("shards"))
		if err != nil || n < 1 {
			http.Error(w, "reshard requires ?shards=M with M >= 1", http.StatusBadRequest)
			return
		}
		if err := srv.Reshard(n); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Printf("rtled: resharded to %d shards\n", n)
		fmt.Fprintf(w, "resharded to %d shards\n", n)
	})
	mux.HandleFunc("/compact", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "compact requires POST", http.StatusMethodNotAllowed)
			return
		}
		floor, err := srv.Compact()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Printf("rtled: compacted replication log below seq %d\n", floor)
		fmt.Fprintf(w, "compacted replication log below seq %d\n", floor)
	})
	return mux
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "rtled:", v)
	os.Exit(2)
}
