package server

import (
	"sort"
	"testing"

	"rtle/internal/check"
)

// crossShardPair returns an account pair owned by different shards, and a
// pair owned by the same shard, under r.
func crossShardPair(t *testing.T, r *router, keys uint64) (cross [2]uint64, same [2]uint64) {
	t.Helper()
	foundCross, foundSame := false, false
	for a := uint64(0); a < keys && !(foundCross && foundSame); a++ {
		for b := uint64(0); b < keys; b++ {
			if a == b {
				continue
			}
			if r.shardOf(a) != r.shardOf(b) && !foundCross {
				cross = [2]uint64{a, b}
				foundCross = true
			}
			if r.shardOf(a) == r.shardOf(b) && !foundSame {
				same = [2]uint64{a, b}
				foundSame = true
			}
		}
	}
	if !foundCross || !foundSame {
		t.Fatal("account space produced no cross-shard or no same-shard pair; shrink the hash?")
	}
	return cross, same
}

// TestShardDistribution checks the router's load spread: hashing a dense
// key space (the serving contract's common shape) across shards must not
// pile onto few shards. The bound is loose — no shard may exceed twice the
// mean, and none may be empty — because consistent hashing trades perfect
// balance for stability.
func TestShardDistribution(t *testing.T) {
	const keys = 100_000
	for _, shards := range []int{2, 4, 8} {
		counts := make([]int, shards)
		for k := uint64(0); k < keys; k++ {
			s := ShardForKey(k, shards)
			if s < 0 || s >= shards {
				t.Fatalf("key %d mapped outside [0,%d): %d", k, shards, s)
			}
			counts[s]++
		}
		mean := keys / shards
		for s, n := range counts {
			if n == 0 {
				t.Errorf("shards=%d: shard %d owns no keys", shards, s)
			}
			if n > 2*mean {
				t.Errorf("shards=%d: shard %d owns %d keys, more than twice the mean %d",
					shards, s, n, mean)
			}
		}
	}
}

// TestJumpHashStability checks the consistent-hash property that motivates
// the choice: growing the shard count moves only keys that land on the new
// shard, never shuffling keys between surviving shards.
func TestJumpHashStability(t *testing.T) {
	const keys = 10_000
	for k := uint64(0); k < keys; k++ {
		old := JumpHash(k, 4)
		grown := JumpHash(k, 5)
		if grown != old && grown != 4 {
			t.Fatalf("key %d moved from shard %d to %d when a 5th shard was added", k, old, grown)
		}
	}
}

// TestRouterBankTables checks the bank partition: every global account is
// owned by exactly one shard, and ownedAccounts agrees with the ownership
// table. The local index order is the adt's (TestUnownedAccountFailsLoudly).
func TestRouterBankTables(t *testing.T) {
	const keys, shards = 64, 4
	r := newRouter("bank", shards, keys)
	total := 0
	for k := 0; k < shards; k++ {
		owned := r.ownedAccounts(k)
		if len(owned) != r.perShard[k] {
			t.Fatalf("shard %d: ownedAccounts returned %d, perShard says %d",
				k, len(owned), r.perShard[k])
		}
		total += len(owned)
		for _, g := range owned {
			if int(r.acctShard[g]) != k {
				t.Errorf("account %d listed for shard %d but acctShard says %d", g, k, r.acctShard[g])
			}
		}
	}
	if total != keys {
		t.Fatalf("shards own %d accounts in total, want %d", total, keys)
	}
}

// TestRoutePlan checks the fast/slow classification.
func TestRoutePlan(t *testing.T) {
	r := newRouter("bank", 4, 64)

	if p := r.plan(&Request{Op: OpPing}); !p.fast || p.shard != 0 {
		t.Errorf("ping planned %+v, want fast on shard 0", p)
	}

	// A single-key op goes to its key's shard.
	p := r.plan(&Request{Op: check.OpBalance, Arg1: 7})
	if !p.fast || p.shard != r.shardOf(7) {
		t.Errorf("balance(7) planned %+v, want fast on shard %d", p, r.shardOf(7))
	}

	// A same-shard transfer stays fast; a cross-shard one spans both
	// shards in ascending order. Every ordered pair is checked: the gates'
	// one acquisition order rests on it, and the pairs of the lowest key
	// alone never see a descending source and destination.
	var same, cross bool
	for a := uint64(0); a < 64; a++ {
		for b := uint64(0); b < 64; b++ {
			if a == b {
				continue
			}
			p := r.plan(&Request{Op: check.OpTransfer, Arg1: a, Arg2: b})
			sa, sb := r.shardOf(a), r.shardOf(b)
			if sa == sb {
				same = true
				if !p.fast || p.shard != sa {
					t.Fatalf("same-shard transfer (%d,%d) planned %+v", a, b, p)
				}
			} else {
				cross = true
				if p.fast || len(p.spans) != 2 || p.spans[0] != min(sa, sb) || p.spans[1] != max(sa, sb) {
					t.Fatalf("cross-shard transfer (%d,%d) planned %+v, want spans [%d %d]", a, b, p, min(sa, sb), max(sa, sb))
				}
			}
		}
	}
	if !same || !cross {
		t.Fatal("account space produced no same-shard or no cross-shard pair; shrink the hash?")
	}

	// A batch confined to one shard is fast; one spanning several is not.
	rm := newRouter("map", 4, 1024)
	one := []BatchEntry{{Op: check.OpGet, Arg1: 3}, {Op: check.OpGet, Arg1: 3}}
	if p := rm.plan(&Request{Op: OpBatch, Batch: one}); !p.fast || p.shard != rm.shardOf(3) {
		t.Errorf("single-shard batch planned %+v", p)
	}
	var a, b uint64 = 0, 1
	for rm.shardOf(b) == rm.shardOf(a) {
		b++
	}
	two := []BatchEntry{{Op: check.OpGet, Arg1: a}, {Op: check.OpGet, Arg1: b}}
	if p := rm.plan(&Request{Op: OpBatch, Batch: two}); p.fast || len(p.spans) != 2 {
		t.Errorf("two-shard batch planned %+v, want 2 spans", p)
	}
}

// TestRoutePlanTransferBatch pins the regression where batch routing
// classified a transfer entry by its source account alone: a batch whose
// entries' first arguments share a shard but whose transfer destination
// lives elsewhere must take the slow path spanning both shards —
// otherwise the destination shard is never gated and the deposit indexes
// a Bank that does not own the account.
func TestRoutePlanTransferBatch(t *testing.T) {
	r := newRouter("bank", 4, 64)
	cross, same := crossShardPair(t, r, 64)

	p := r.plan(&Request{Op: OpBatch, Batch: []BatchEntry{
		{Op: check.OpTransfer, Arg1: cross[0], Arg2: cross[1], Arg3: 1},
		{Op: check.OpBalance, Arg1: cross[0]},
	}})
	if p.fast {
		t.Fatalf("batch with a cross-shard transfer planned fast on shard %d", p.shard)
	}
	want := []int{r.shardOf(cross[0]), r.shardOf(cross[1])}
	sort.Ints(want)
	if len(p.spans) != 2 || p.spans[0] != want[0] || p.spans[1] != want[1] {
		t.Fatalf("spans %v, want %v (both the source and destination shards)", p.spans, want)
	}

	// A batch whose transfers stay inside one shard remains fast.
	p = r.plan(&Request{Op: OpBatch, Batch: []BatchEntry{
		{Op: check.OpTransfer, Arg1: same[0], Arg2: same[1], Arg3: 1},
		{Op: check.OpBalance, Arg1: same[0]},
	}})
	if !p.fast || p.shard != r.shardOf(same[0]) {
		t.Errorf("same-shard transfer batch planned %+v, want fast on shard %d", p, r.shardOf(same[0]))
	}
}

// TestSingleShardRouting pins the degenerate case: with one shard, every
// key routes to shard 0 and nothing takes the slow path.
func TestSingleShardRouting(t *testing.T) {
	r := newRouter("map", 1, 1024)
	for k := uint64(0); k < 1024; k++ {
		if r.shardOf(k) != 0 {
			t.Fatalf("key %d routed to shard %d with one shard", k, r.shardOf(k))
		}
	}
	p := r.plan(&Request{Op: OpBatch, Batch: []BatchEntry{
		{Op: check.OpGet, Arg1: 1}, {Op: check.OpGet, Arg1: 999},
	}})
	if !p.fast || p.shard != 0 {
		t.Errorf("one-shard batch planned %+v, want fast on shard 0", p)
	}
}
