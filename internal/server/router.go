package server

import (
	"sort"

	"rtle/internal/check"
	"rtle/internal/wanghash"
)

// JumpHash is Lamping–Veach jump consistent hash: it maps key to a bucket
// in [0, buckets) such that growing the bucket count moves only ~1/buckets
// of the keys. The serving layer feeds it wanghash-mixed keys so that
// small sequential key spaces (the common serving contract) spread evenly.
func JumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ShardForKey maps one ADT key to its owning shard: jump-consistent hash
// over the wanghash mix of the key. Exported so the load generator's
// checker can attribute a failing per-key partition to the shard that
// served it.
func ShardForKey(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return JumpHash(wanghash.Mix(key), shards)
}

// router owns the key→shard mapping for one server. For set and map every
// shard's structure spans the full key space and ownership is purely the
// hash; for bank the router additionally assigns every global account a
// (shard, local index) pair, because each shard's Bank instance holds only
// its owned accounts.
type router struct {
	workload string
	shards   int

	// Bank ownership table, nil for set/map: acctShard[g] owns global
	// account g. The shard's adt translates g to its Bank index, in
	// ownedAccounts order.
	acctShard []int32
	// perShard[k] counts the accounts shard k owns.
	perShard []int
}

// newRouter builds the mapping for the given workload, shard count, and
// key-space bound.
func newRouter(workload string, shards, keys int) *router {
	r := &router{workload: workload, shards: shards}
	if workload == "bank" {
		r.acctShard = make([]int32, keys)
		r.perShard = make([]int, shards)
		for g := 0; g < keys; g++ {
			k := ShardForKey(uint64(g), shards)
			r.acctShard[g] = int32(k)
			r.perShard[k]++
		}
	}
	return r
}

// ownedAccounts returns the global account ids shard k owns, in local
// index order (bank only).
func (r *router) ownedAccounts(k int) []uint64 {
	owned := make([]uint64, 0, r.perShard[k])
	for g := range r.acctShard {
		if r.acctShard[g] == int32(k) {
			owned = append(owned, uint64(g))
		}
	}
	return owned
}

// shardOf maps one operation's key to its shard. For bank the precomputed
// account table is authoritative; set/map hash directly.
func (r *router) shardOf(key uint64) int {
	if r.shards <= 1 {
		return 0
	}
	if r.acctShard != nil {
		return int(r.acctShard[key])
	}
	return ShardForKey(key, r.shards)
}

// routePlan classifies one validated request. A fast-path request runs on
// one shard, on a section borrowed from its pool; a slow-path request
// involves the ascending shard id set in spans and runs under those
// shards' exclusive gates (runCross).
type routePlan struct {
	fast  bool
	shard int   // fast-path target
	spans []int // slow-path involved shards, ascending, no duplicates
}

// plan routes one validated request. Ping takes shard 0's fast path (it is
// a liveness and drain probe, so it is admitted and borrows a section like
// any operation). A batch whose entries all hash to one shard takes that
// shard's fast path; anything touching several shards is a slow-path plan.
func (r *router) plan(req *Request) routePlan {
	switch req.Op {
	case OpPing:
		return routePlan{fast: true, shard: 0}
	case OpBatch:
		first, b0 := r.entryShards(&req.Batch[0])
		multi := b0 != first
		for i := 1; i < len(req.Batch) && !multi; i++ {
			a, b := r.entryShards(&req.Batch[i])
			multi = a != first || b != first
		}
		if !multi {
			return routePlan{fast: true, shard: first}
		}
		return routePlan{spans: r.batchSpans(req.Batch)}
	case check.OpTransfer:
		a, b := r.shardOf(req.Arg1), r.shardOf(req.Arg2)
		if a == b {
			return routePlan{fast: true, shard: a}
		}
		if a > b {
			a, b = b, a
		}
		return routePlan{spans: []int{a, b}}
	default:
		return routePlan{fast: true, shard: r.shardOf(req.Arg1)}
	}
}

// entryShards returns the shards one batch entry touches, as the
// (source, destination) pair for a transfer — both accounts' owning
// shards matter for routing, a withdrawal and a deposit each — and the
// single owning shard twice for every other op.
func (r *router) entryShards(e *BatchEntry) (int, int) {
	a := r.shardOf(e.Arg1)
	if e.Op == check.OpTransfer {
		return a, r.shardOf(e.Arg2)
	}
	return a, a
}

// batchSpans returns the ascending deduplicated shard set of a batch.
// Only multi-shard batches reach it, and those ride the slow path by
// construction.
func (r *router) batchSpans(batch []BatchEntry) []int {
	seen := make(map[int]struct{}, r.shards)
	for i := range batch {
		a, b := r.entryShards(&batch[i])
		seen[a] = struct{}{}
		seen[b] = struct{}{}
	}
	spans := make([]int, 0, len(seen))
	for k := range seen {
		spans = append(spans, k)
	}
	sort.Ints(spans)
	return spans
}
