package server

import (
	"fmt"
	"io"
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
// atomics: the hot path is wait-free and a scrape never blocks a worker.
type ShardMetrics struct {
	queueDepth atomic.Int64 // requests accepted onto this shard, not yet picked up
	inflight   atomic.Int64 // requests picked up, not yet answered
	sections   atomic.Uint64
	batchOps   atomic.Uint64
	coalesced  atomic.Uint64 // single ops executed in a shared atomic block
	slowBlocks atomic.Uint64 // atomic blocks run on this shard by the cross-shard slow path

	// ewmaServiceNanos is the decayed mean wall time of one atomic block
	// on this shard — fast and slow paths alike — the basis of the
	// retry-after hint, which prices total shard occupancy.
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

// retryAfterMicros estimates when this shard's queue capacity frees up:
// the backlog ahead of a rejected request (depth plus what is executing),
// paced by the decayed per-section service time spread over the shard's
// worker pool.
func (m *ShardMetrics) retryAfterMicros(workers int) uint32 {
	backlog := m.queueDepth.Load() + m.inflight.Load()
	svc := m.ewmaServiceNanos.Load()
	if svc <= 0 {
		svc = 50_000 // no samples yet: a conservative 50us guess
	}
	if workers < 1 {
		workers = 1
	}
	micros := backlog * svc / int64(workers) / 1_000
	if micros < 100 {
		micros = 100
	}
	if micros > 1_000_000 {
		micros = 1_000_000
	}
	return uint32(micros)
}

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

	// Cross-shard slow path.
	slowDepth atomic.Int64  // slow-path tasks accepted, not yet picked up
	crossOps  atomic.Uint64 // operations answered via the slow path

	// latency is the queue-to-response service latency per op slot.
	latency [numOps]obs.Histogram

	// writeBatchFrames is the distribution of frames per vectored write:
	// how many queued responses each writev flushed in one syscall. A mass
	// near 1 means the write loop never finds a second frame queued (the
	// load is not pipelined enough to coalesce); a fatter tail is syscalls
	// saved.
	writeBatchFrames obs.Histogram

	// affineOps counts operations handed to their shard queue by an
	// affinity run: the reader chained consecutive same-shard single ops
	// and delivered the chain in one queue send, skipping the per-op
	// channel hop.
	affineOps atomic.Uint64
	// affineRuns counts the chains themselves (affineOps / affineRuns is
	// the mean run length).
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

// QueueDepth returns the accepted-but-not-started request count summed
// across all shard queues and the slow-path queue.
func (m *Metrics) QueueDepth() int64 {
	d := m.slowDepth.Load()
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

// ewmaServiceNanos returns the widest shard EWMA, the merged gauge.
func (m *Metrics) ewmaServiceNanosMax() int64 {
	var v int64
	for _, s := range m.Shards() {
		if e := s.ewmaServiceNanos.Load(); e > v {
			v = e
		}
	}
	return v
}

// WritePrometheus renders the server series in the Prometheus text format,
// in the style of obs.Snapshot.WritePrometheus; the rtled admin endpoint
// concatenates both under one /metrics response. Per-shard execution
// series carry a shard label; the unlabelled series are the merged
// snapshot (sums, or the max for the service-time gauge).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	// One load for the whole scrape: Reshard may swap the shard set while
	// a render is in flight, and mixed generations would mislabel series.
	shards := m.Shards()

	p("# HELP rtled_connections Open client connections.\n")
	p("# TYPE rtled_connections gauge\n")
	p("rtled_connections %d\n", m.connsOpen.Load())

	p("# HELP rtled_connections_total Client connections accepted.\n")
	p("# TYPE rtled_connections_total counter\n")
	p("rtled_connections_total %d\n", m.connsTotal.Load())

	p("# HELP rtled_shards Independent ADT shards served.\n")
	p("# TYPE rtled_shards gauge\n")
	p("rtled_shards %d\n", len(shards))

	p("# HELP rtled_requests_total Requests decoded, by operation.\n")
	p("# TYPE rtled_requests_total counter\n")
	for i := 0; i < numOps; i++ {
		if n := m.requests[i].Load(); n > 0 {
			p("rtled_requests_total{op=%q} %d\n", opName(i), n)
		}
	}

	p("# HELP rtled_responses_total Responses sent, by status.\n")
	p("# TYPE rtled_responses_total counter\n")
	for s := 0; s < len(m.statuses); s++ {
		p("rtled_responses_total{status=%q} %d\n", Status(s).String(), m.statuses[s].Load())
	}

	p("# HELP rtled_bad_requests_total Frames rejected at decode or validation.\n")
	p("# TYPE rtled_bad_requests_total counter\n")
	p("rtled_bad_requests_total %d\n", m.badOps.Load())

	p("# HELP rtled_hello_rejects_total Connections refused at version negotiation.\n")
	p("# TYPE rtled_hello_rejects_total counter\n")
	p("rtled_hello_rejects_total %d\n", m.helloRejects.Load())

	p("# HELP rtled_queue_depth Accepted requests waiting for a worker.\n")
	p("# TYPE rtled_queue_depth gauge\n")
	p("rtled_queue_depth %d\n", m.QueueDepth())

	p("# HELP rtled_cross_shard_total Operations answered via the cross-shard slow path.\n")
	p("# TYPE rtled_cross_shard_total counter\n")
	p("rtled_cross_shard_total %d\n", m.crossOps.Load())

	// Per-shard execution families: the unlabelled line is the merged
	// snapshot (sum, or max for the service-time gauge), followed by one
	// {shard="k"} series per shard so a dashboard can see skew.
	var inflight int64
	var sections, batchOps, coalesced, slowBlocks uint64
	for _, s := range shards {
		inflight += s.inflight.Load()
		sections += s.sections.Load()
		batchOps += s.batchOps.Load()
		coalesced += s.coalesced.Load()
		slowBlocks += s.slowBlocks.Load()
	}

	p("# HELP rtled_inflight Requests a worker is executing.\n")
	p("# TYPE rtled_inflight gauge\n")
	p("rtled_inflight %d\n", inflight)
	for k, s := range shards {
		p("rtled_inflight{shard=\"%d\"} %d\n", k, s.inflight.Load())
	}

	p("# HELP rtled_shard_queue_depth Accepted requests waiting on one shard's queue.\n")
	p("# TYPE rtled_shard_queue_depth gauge\n")
	for k, s := range shards {
		p("rtled_shard_queue_depth{shard=\"%d\"} %d\n", k, s.queueDepth.Load())
	}

	p("# HELP rtled_sections_total Atomic blocks executed by the worker pools.\n")
	p("# TYPE rtled_sections_total counter\n")
	p("rtled_sections_total %d\n", sections)
	for k, s := range shards {
		p("rtled_sections_total{shard=\"%d\"} %d\n", k, s.sections.Load())
	}

	p("# HELP rtled_batch_ops_total Operations executed inside client batches.\n")
	p("# TYPE rtled_batch_ops_total counter\n")
	p("rtled_batch_ops_total %d\n", batchOps)
	for k, s := range shards {
		p("rtled_batch_ops_total{shard=\"%d\"} %d\n", k, s.batchOps.Load())
	}

	p("# HELP rtled_coalesced_ops_total Single operations coalesced into a shared atomic block.\n")
	p("# TYPE rtled_coalesced_ops_total counter\n")
	p("rtled_coalesced_ops_total %d\n", coalesced)
	for k, s := range shards {
		p("rtled_coalesced_ops_total{shard=\"%d\"} %d\n", k, s.coalesced.Load())
	}

	p("# HELP rtled_slow_blocks_total Atomic blocks run under exclusive drain gates by the cross-shard slow path.\n")
	p("# TYPE rtled_slow_blocks_total counter\n")
	p("rtled_slow_blocks_total %d\n", slowBlocks)
	for k, s := range shards {
		p("rtled_slow_blocks_total{shard=\"%d\"} %d\n", k, s.slowBlocks.Load())
	}

	p("# HELP rtled_service_ewma_seconds Decayed mean atomic-block service time (max across shards).\n")
	p("# TYPE rtled_service_ewma_seconds gauge\n")
	p("rtled_service_ewma_seconds %g\n", float64(m.ewmaServiceNanosMax())/1e9)
	for k, s := range shards {
		p("rtled_service_ewma_seconds{shard=\"%d\"} %g\n", k, float64(s.ewmaServiceNanos.Load())/1e9)
	}

	if r := m.repl; r != nil {
		role, roleN := "primary", 0
		if r.role.Load() == roleReplica {
			role, roleN = "replica", 1
		}
		p("# HELP rtled_repl_role Replication role (0 primary, 1 replica), labelled with the name.\n")
		p("# TYPE rtled_repl_role gauge\n")
		p("rtled_repl_role{role=%q} %d\n", role, roleN)

		hw := r.log.HighWater()
		p("# HELP rtled_repl_log_seq Log high-water mark: sequence of the latest appended entry.\n")
		p("# TYPE rtled_repl_log_seq gauge\n")
		p("rtled_repl_log_seq %d\n", hw)

		acked := r.minAcked()
		p("# HELP rtled_repl_acked_seq Lowest cumulative acknowledgement across live subscribers (log high-water with none).\n")
		p("# TYPE rtled_repl_acked_seq gauge\n")
		p("rtled_repl_acked_seq %d\n", acked)

		var lag uint64
		if roleN == 1 {
			if a := r.appliedSeq.Load(); hw > a {
				lag = hw - a
			}
		} else if hw > acked {
			lag = hw - acked
		}
		p("# HELP rtled_repl_lag_entries Entries appended but not yet acknowledged (primary) or applied (replica).\n")
		p("# TYPE rtled_repl_lag_entries gauge\n")
		p("rtled_repl_lag_entries %d\n", lag)

		p("# HELP rtled_repl_applied_seq Latest log sequence applied to this server's ADT.\n")
		p("# TYPE rtled_repl_applied_seq gauge\n")
		p("rtled_repl_applied_seq %d\n", r.appliedSeq.Load())

		p("# HELP rtled_repl_subscribers Live replication stream subscribers.\n")
		p("# TYPE rtled_repl_subscribers gauge\n")
		p("rtled_repl_subscribers %d\n", r.subscriberCount())

		p("# HELP rtled_repl_ack_waiters Commits waiting for subscriber acknowledgement (sync ack depth).\n")
		p("# TYPE rtled_repl_ack_waiters gauge\n")
		p("rtled_repl_ack_waiters %d\n", r.waiters.Load())

		p("# HELP rtled_repl_sync_degraded_total Sync-mode commits acknowledged without a live subscriber.\n")
		p("# TYPE rtled_repl_sync_degraded_total counter\n")
		p("rtled_repl_sync_degraded_total %d\n", r.degraded.Load())

		st := r.log.LogStats()
		p("# HELP rtled_repl_log_entries Log entries retained above the compaction floor.\n")
		p("# TYPE rtled_repl_log_entries gauge\n")
		p("rtled_repl_log_entries %d\n", st.Entries)

		p("# HELP rtled_repl_log_bytes Encoded size of the retained log entries.\n")
		p("# TYPE rtled_repl_log_bytes gauge\n")
		p("rtled_repl_log_bytes %d\n", st.Bytes)

		p("# HELP rtled_repl_log_floor Compaction floor: highest sequence truncated out of the log.\n")
		p("# TYPE rtled_repl_log_floor gauge\n")
		p("rtled_repl_log_floor %d\n", st.Floor)

		p("# HELP rtled_repl_log_truncations_total Completed log compactions (truncations and bootstrap resets).\n")
		p("# TYPE rtled_repl_log_truncations_total counter\n")
		p("rtled_repl_log_truncations_total %d\n", st.Truncations)
	}

	p("# HELP rtled_affine_ops_total Operations handed to their shard by a chained affinity run.\n")
	p("# TYPE rtled_affine_ops_total counter\n")
	p("rtled_affine_ops_total %d\n", m.affineOps.Load())

	p("# HELP rtled_affine_runs_total Affinity-run chains delivered (ops/runs is the mean run length).\n")
	p("# TYPE rtled_affine_runs_total counter\n")
	p("rtled_affine_runs_total %d\n", m.affineRuns.Load())

	// Frames-per-writev distribution. The histogram's log2 buckets hold
	// frame counts, not nanoseconds, so the bucket bound is rendered as the
	// largest count the bucket admits.
	if wb := m.writeBatchFrames.Snapshot(); wb.Count > 0 {
		p("# HELP rtled_write_batch_frames Response frames flushed per vectored write syscall.\n")
		p("# TYPE rtled_write_batch_frames histogram\n")
		var cum uint64
		for b := 0; b < obs.NumLatencyBuckets; b++ {
			if wb.Counts[b] == 0 {
				continue
			}
			cum += wb.Counts[b]
			p("rtled_write_batch_frames_bucket{le=\"%d\"} %d\n", uint64(1)<<(b+1)-1, cum)
		}
		p("rtled_write_batch_frames_bucket{le=\"+Inf\"} %d\n", wb.Count)
		p("rtled_write_batch_frames_sum %d\n", wb.SumNanos)
		p("rtled_write_batch_frames_count %d\n", wb.Count)
	}

	p("# HELP rtled_request_latency_seconds Queue-to-response service latency by operation.\n")
	p("# TYPE rtled_request_latency_seconds histogram\n")
	for i := 0; i < numOps; i++ {
		l := m.latency[i].Snapshot()
		if l.Count == 0 {
			continue
		}
		name := opName(i)
		var cum uint64
		for b := 0; b < obs.NumLatencyBuckets; b++ {
			if l.Counts[b] == 0 {
				continue
			}
			cum += l.Counts[b]
			p("rtled_request_latency_seconds_bucket{op=%q,le=\"%g\"} %d\n",
				name, obs.BucketUpperBoundSeconds(b), cum)
		}
		p("rtled_request_latency_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", name, l.Count)
		p("rtled_request_latency_seconds_sum{op=%q} %g\n", name, float64(l.SumNanos)/1e9)
		p("rtled_request_latency_seconds_count{op=%q} %d\n", name, l.Count)
	}
	return err
}
