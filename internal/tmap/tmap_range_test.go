package tmap

import (
	"testing"

	"rtle/internal/mem"
)

func TestForEachBucketRangeDisjointCover(t *testing.T) {
	mp, h, c := newMap(16)
	for k := uint64(0); k < 200; k++ {
		h.PutDirect(c, k, k)
	}
	// Four disjoint chunks must partition the key space exactly.
	seen := map[uint64]int{}
	nb := mp.Buckets()
	for chunk := 0; chunk < 4; chunk++ {
		lo, hi := chunk*nb/4, (chunk+1)*nb/4
		mp.ForEachBucketRange(c, lo, hi, func(k, v uint64) {
			seen[k]++
		})
	}
	if len(seen) != 200 {
		t.Fatalf("chunked iteration saw %d keys, want 200", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d visited %d times", k, n)
		}
	}
}

func TestForEachBucketRangeClamps(t *testing.T) {
	mp, h, c := newMap(8)
	h.PutDirect(c, 1, 1)
	n := 0
	mp.ForEachBucketRange(c, -5, 1000, func(uint64, uint64) { n++ })
	if n != 1 {
		t.Fatalf("clamped range visited %d entries, want 1", n)
	}
	mp.ForEachBucketRange(c, 5, 3, func(uint64, uint64) {
		t.Fatal("empty range visited an entry")
	})
}

func TestDirectWrappersBookkeeping(t *testing.T) {
	mp, h, c := newMap(8)
	// AddDirect consumes spares so churn cannot corrupt chains.
	for i := 0; i < 20; i++ {
		h.AddDirect(c, uint64(i), 1)
	}
	if mp.Len(c) != 20 {
		t.Fatalf("Len = %d, want 20", mp.Len(c))
	}
	// DeleteDirect recycles; PutDirect reuses the recycled node.
	before := mp.m.Allocated()
	for i := 0; i < 30; i++ {
		if !h.DeleteDirect(c, 5) {
			t.Fatal("delete failed")
		}
		if !h.PutDirect(c, 5, 1) {
			t.Fatal("re-insert failed")
		}
	}
	if grown := mp.m.Allocated() - before; grown > 2*mem.WordsPerLine {
		t.Fatalf("heap grew %d words during churn", grown)
	}
	if mp.Len(c) != 20 {
		t.Fatalf("Len after churn = %d, want 20", mp.Len(c))
	}
}

// TestHandleSpareAccessors: Committed does nothing with nothing pending or
// when called twice, consumes the spare only when the committed body linked
// it, and recycles exactly the node the committed DeleteCS unlinked.
func TestHandleSpareAccessors(t *testing.T) {
	_, h, c := newMap(8)
	h.Committed()
	if h.spare != mem.Nil || len(h.freeList) != 0 {
		t.Fatalf("Committed on a fresh handle left spare %d, free list %v", h.spare, h.freeList)
	}
	if !h.PutCS(c, 1, 1) {
		t.Fatal("first PutCS did not insert")
	}
	node := h.spare
	h.Committed()
	h.Committed() // idempotent
	if h.spare != mem.Nil || len(h.freeList) != 0 {
		t.Fatalf("after an inserting PutCS, Committed left spare %d, free list %v", h.spare, h.freeList)
	}
	spare := h.ensureSpare() // as an inserting attempt that aborted leaves it
	h.PutCS(c, 1, 2)         // update: no spare involved
	h.Committed()
	if h.spare != spare {
		t.Fatal("Committed after an update-only PutCS consumed the spare")
	}
	if !h.DeleteCS(c, 1) {
		t.Fatal("delete failed")
	}
	h.Committed()
	h.Committed() // idempotent
	if len(h.freeList) != 1 || h.freeList[0] != node {
		t.Fatalf("free list %v after deleting node %d, want exactly that node", h.freeList, node)
	}
	if h.spare != spare {
		t.Fatal("Committed after DeleteCS touched the spare")
	}
}
