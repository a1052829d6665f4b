package server

import (
	"io"
	"strconv"
	"sync/atomic"

	"rtle/internal/check"
	"rtle/internal/obs"
)

// numOps sizes the per-op metric arrays: the nine check.Op codes plus
// batch, ping, replication-subscribe, and snapshot slots.
const numOps = 13

// opIndex maps a wire op to its metric slot. An opcode the protocol does
// not define has none (-1): validation rejects it before anything indexes
// by it.
func opIndex(op Op) int {
	switch op {
	case OpBatch:
		return 9
	case OpPing:
		return 10
	case OpReplSubscribe:
		return 11
	case OpSnapshot:
		return 12
	default:
		if int(op) < 9 {
			return int(op)
		}
		return -1
	}
}

// opName returns the metric label for slot i.
func opName(i int) string {
	switch i {
	case 9:
		return "batch"
	case 10:
		return "ping"
	case 11:
		return "repl-subscribe"
	case 12:
		return "snapshot"
	default:
		return check.Op(i).String()
	}
}

// ShardMetrics is one shard's wire-level execution state. All fields are
// atomics: the hot path is wait-free and a scrape never blocks a reader.
type ShardMetrics struct {
	queueDepth atomic.Int64 // requests admitted onto this shard, waiting for a section
	inflight   atomic.Int64 // requests of a stretch holding a section, until it goes back
	sections   atomic.Uint64
	batchOps   atomic.Uint64
	coalesced  atomic.Uint64 // single ops executed in a shared atomic block
	slowBlocks atomic.Uint64 // atomic blocks run on this shard by the cross-shard slow path

	// ewmaServiceNanos is the decayed mean wall time of one atomic block
	// on this shard — fast and slow paths alike — exported as an
	// observability gauge of shard occupancy.
	ewmaServiceNanos atomic.Int64
}

// ewmaFold folds one sample into a decayed mean (alpha = 1/8, integer
// arithmetic; a racing update loses one sample, which a decayed mean
// absorbs).
func ewmaFold(v *atomic.Int64, sample int64) {
	old := v.Load()
	if old == 0 {
		v.Store(sample)
		return
	}
	v.Store(old + (sample-old)/8)
}

// observeService folds one atomic block's wall time into the service EWMA.
func (m *ShardMetrics) observeService(nanos int64) { ewmaFold(&m.ewmaServiceNanos, nanos) }

// Metrics is the server's wire-level metric registry, exposed next to the
// obs.Registry series on /metrics. Connection- and protocol-level series
// live here; execution state lives in the per-shard ShardMetrics, and the
// unlabelled series aggregate across shards so dashboards written against
// the unsharded server keep working.
type Metrics struct {
	// Connections tracking.
	connsOpen  atomic.Int64
	connsTotal atomic.Uint64

	// Request outcomes.
	requests [numOps]atomic.Uint64
	statuses [5]atomic.Uint64 // by Status
	badOps   atomic.Uint64    // decode/validation failures

	// helloRejects counts connections refused at version negotiation
	// (missing hello, unsupported version).
	helloRejects atomic.Uint64

	crossOps atomic.Uint64 // operations answered via the cross-shard slow path

	// latency is the service latency per op slot: from the request's
	// arrival at decode to its answer's encode.
	latency [numOps]obs.Histogram

	// writeBatchFrames is the distribution of frames per write syscall:
	// how many staged frames each connection write carried. A mass near 1
	// means a burst never holds a second answer (the load is not pipelined
	// enough to coalesce); a fatter tail is syscalls saved.
	writeBatchFrames obs.Histogram

	// affineOps counts operations admitted in a run on its cached plan:
	// the reader gathered consecutive same-shard operations of one burst
	// into its connection's run slice and executed them as one group.
	affineOps atomic.Uint64
	// affineRuns counts the runs themselves (affineOps / affineRuns is the
	// mean run length).
	affineRuns atomic.Uint64

	// shards holds the per-shard execution metrics, attached by New and
	// swapped atomically by Reshard while scrapes may be in flight.
	shards atomic.Pointer[[]*ShardMetrics]

	// repl exposes the replication subsystem's gauges; nil when the server
	// runs without replication.
	repl *replication
}

// attach wires the per-shard metric blocks (called by New, and again by
// Reshard with the rebuilt shard set; per-shard counters restart at zero).
func (m *Metrics) attach(shards []*ShardMetrics) { m.shards.Store(&shards) }

// Shards returns the per-shard metric blocks.
func (m *Metrics) Shards() []*ShardMetrics {
	if p := m.shards.Load(); p != nil {
		return *p
	}
	return nil
}

// Latency returns a snapshot of op's service-latency histogram.
func (m *Metrics) Latency(op Op) obs.LatencySnapshot {
	return m.latency[opIndex(op)].Snapshot()
}

// QueueDepth returns the accepted-but-not-started request count: every
// shard's admitted requests waiting for a section.
func (m *Metrics) QueueDepth() int64 {
	var d int64
	for _, s := range m.Shards() {
		d += s.queueDepth.Load()
	}
	return d
}

// Requests returns the total requests recorded for op.
func (m *Metrics) Requests(op Op) uint64 { return m.requests[opIndex(op)].Load() }

// Responses returns the total responses with the given status.
func (m *Metrics) Responses(s Status) uint64 { return m.statuses[s].Load() }

// Coalesced returns the number of single operations that shared an atomic
// block with at least one other request, across all shards.
func (m *Metrics) Coalesced() uint64 {
	var n uint64
	for _, s := range m.Shards() {
		n += s.coalesced.Load()
	}
	return n
}

// Sections returns the number of atomic blocks executed across all
// shards (fast path and slow path).
func (m *Metrics) Sections() uint64 {
	var n uint64
	for _, s := range m.Shards() {
		n += s.sections.Load()
	}
	return n
}

// CrossShard returns the number of operations answered via the
// cross-shard slow path.
func (m *Metrics) CrossShard() uint64 { return m.crossOps.Load() }

// WritePrometheus renders the server series in the Prometheus text format
// through obs.PromWriter, as obs.Snapshot.WritePrometheus does; the rtled
// admin endpoint concatenates both under one /metrics response. Per-shard
// execution series carry a shard label; the unlabelled series are the merged
// snapshot (sums, or the max for the service-time gauge).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)
	// One load for the whole scrape: Reshard may swap the shard set while
	// a render is in flight, and mixed generations would mislabel series.
	shards := m.Shards()

	p.Metric("rtled_connections", "gauge", "Open client connections.", m.connsOpen.Load())
	p.Metric("rtled_connections_total", "counter", "Client connections accepted.", m.connsTotal.Load())
	p.Metric("rtled_shards", "gauge", "Independent ADT shards served.", len(shards))

	p.Family("rtled_requests_total", "counter", "Requests decoded, by operation.")
	for i := 0; i < numOps; i++ {
		if n := m.requests[i].Load(); n > 0 {
			p.Sample(n, "op", opName(i))
		}
	}

	p.Family("rtled_responses_total", "counter", "Responses sent, by status.")
	for _, s := range [...]Status{StatusOK, StatusBad, StatusShutdown, StatusNotPrimary} {
		p.Sample(m.statuses[s].Load(), "status", s.String())
	}

	p.Metric("rtled_bad_requests_total", "counter", "Frames rejected at decode or validation.", m.badOps.Load())
	p.Metric("rtled_hello_rejects_total", "counter", "Connections refused at version negotiation.", m.helloRejects.Load())
	p.Metric("rtled_queue_depth", "gauge", "Accepted requests waiting for a shard section.", m.QueueDepth())
	p.Metric("rtled_cross_shard_total", "counter", "Operations answered via the cross-shard slow path.", m.crossOps.Load())

	// Per-shard execution families: the unlabelled line is the merged
	// snapshot (sum, or max for the service-time gauge; nil for none),
	// followed by one {shard="k"} series per shard so a dashboard can see
	// skew.
	perShard := func(name, typ, help string, merged any, get func(*ShardMetrics) any) {
		p.Family(name, typ, help)
		if merged != nil {
			p.Sample(merged)
		}
		for k, s := range shards {
			p.Sample(get(s), "shard", strconv.Itoa(k))
		}
	}
	var inflight, ewmaMax int64
	var sections, batchOps, coalesced, slowBlocks uint64
	for _, s := range shards {
		inflight += s.inflight.Load()
		sections += s.sections.Load()
		batchOps += s.batchOps.Load()
		coalesced += s.coalesced.Load()
		slowBlocks += s.slowBlocks.Load()
		ewmaMax = max(ewmaMax, s.ewmaServiceNanos.Load())
	}
	perShard("rtled_inflight", "gauge", "Requests executing on a shard section.",
		inflight, func(s *ShardMetrics) any { return s.inflight.Load() })
	perShard("rtled_shard_queue_depth", "gauge", "Admitted requests waiting for one of the shard's sections.",
		nil, func(s *ShardMetrics) any { return s.queueDepth.Load() })
	perShard("rtled_sections_total", "counter", "Atomic blocks executed on the shard.",
		sections, func(s *ShardMetrics) any { return s.sections.Load() })
	perShard("rtled_batch_ops_total", "counter", "Operations executed inside client batches.",
		batchOps, func(s *ShardMetrics) any { return s.batchOps.Load() })
	perShard("rtled_coalesced_ops_total", "counter", "Single operations coalesced into a shared atomic block.",
		coalesced, func(s *ShardMetrics) any { return s.coalesced.Load() })
	perShard("rtled_slow_blocks_total", "counter", "Atomic blocks run under exclusive drain gates by the cross-shard slow path.",
		slowBlocks, func(s *ShardMetrics) any { return s.slowBlocks.Load() })
	perShard("rtled_service_ewma_seconds", "gauge", "Decayed mean atomic-block service time (max across shards).",
		float64(ewmaMax)/1e9, func(s *ShardMetrics) any { return float64(s.ewmaServiceNanos.Load()) / 1e9 })

	if r := m.repl; r != nil {
		role, roleN := "primary", 0
		if r.role.Load() == roleReplica {
			role, roleN = "replica", 1
		}
		p.Family("rtled_repl_role", "gauge", "Replication role (0 primary, 1 replica), labelled with the name.")
		p.Sample(roleN, "role", role)

		hw := r.log.HighWater()
		p.Metric("rtled_repl_log_seq", "gauge", "Log high-water mark: sequence of the latest appended entry.", hw)
		acked := r.minAcked()
		p.Metric("rtled_repl_acked_seq", "gauge", "Lowest cumulative acknowledgement across live subscribers (log high-water with none).", acked)

		var lag uint64
		if roleN == 1 {
			if a := r.appliedSeq.Load(); hw > a {
				lag = hw - a
			}
		} else if hw > acked {
			lag = hw - acked
		}
		p.Metric("rtled_repl_lag_entries", "gauge", "Entries appended but not yet acknowledged (primary) or applied (replica).", lag)
		p.Metric("rtled_repl_applied_seq", "gauge", "Latest log sequence applied to this server's ADT.", r.appliedSeq.Load())
		p.Metric("rtled_repl_subscribers", "gauge", "Live replication stream subscribers.", r.subscriberCount())
		p.Metric("rtled_repl_ack_waiters", "gauge", "Commits waiting for subscriber acknowledgement (sync ack depth).", r.waiters.Load())
		p.Metric("rtled_repl_sync_degraded_total", "counter", "Sync-mode commits acknowledged without a live subscriber.", r.degraded.Load())

		st := r.log.LogStats()
		p.Metric("rtled_repl_log_entries", "gauge", "Log entries retained above the compaction floor.", st.Entries)
		p.Metric("rtled_repl_log_bytes", "gauge", "Encoded size of the retained log entries.", st.Bytes)
		p.Metric("rtled_repl_log_floor", "gauge", "Compaction floor: highest sequence truncated out of the log.", st.Floor)
		p.Metric("rtled_repl_log_truncations_total", "counter", "Completed log compactions (truncations and bootstrap resets).", st.Truncations)
	}

	p.Metric("rtled_affine_ops_total", "counter", "Operations admitted in a run planned onto one shard.", m.affineOps.Load())
	p.Metric("rtled_affine_runs_total", "counter", "Runs executed on their cached plan (ops/runs is the mean run length).", m.affineRuns.Load())

	// Frames-per-writev distribution. The histogram's log2 buckets hold
	// frame counts, not nanoseconds, so the bucket bound is rendered as the
	// largest count the bucket admits.
	if wb := m.writeBatchFrames.Snapshot(); wb.Count > 0 {
		p.Family("rtled_write_batch_frames", "histogram", "Frames per write syscall.")
		p.Histogram(&wb, false)
	}

	p.Family("rtled_request_latency_seconds", "histogram", "Service latency by operation, from decode to encode.")
	for i := 0; i < numOps; i++ {
		if l := m.latency[i].Snapshot(); l.Count > 0 {
			p.Histogram(&l, true, "op", opName(i))
		}
	}
	return p.Err()
}
