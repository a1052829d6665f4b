package avl

import (
	"testing"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// rootKey returns the key at s's root.
func rootKey(s *Set, c core.Context) uint64 {
	root := mem.Addr(c.Read(s.head))
	return c.Read(root + offKey)
}

// The four classic rebalancing cases, checked by root identity: inserting
// three keys in each problematic order must leave the middle key at the
// root with height 2. Each case runs as the subtest "set", named for the
// structure it builds.
func rotationCase(t *testing.T, keys [3]uint64) {
	t.Run("set", func(t *testing.T) {
		s, h, c := newSet(1 << 12)
		for _, k := range keys {
			h.AfterInsert(h.InsertCS(c, k))
		}
		if got := rootKey(s, c); got != 20 {
			t.Fatalf("root after inserting %v = %d, want 20", keys, got)
		}
		if err := s.CheckInvariants(c); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRotationLL(t *testing.T) { rotationCase(t, [3]uint64{30, 20, 10}) } // left-left
func TestRotationRR(t *testing.T) { rotationCase(t, [3]uint64{10, 20, 30}) } // right-right
func TestRotationLR(t *testing.T) { rotationCase(t, [3]uint64{30, 10, 20}) } // left-right (double)
func TestRotationRL(t *testing.T) { rotationCase(t, [3]uint64{10, 30, 20}) } // right-left (double)

// removeCase builds a tree from build, removes victim, and requires every
// other key to survive; wantRoot 0 leaves the root unchecked.
func removeCase(t *testing.T, build []uint64, victim, wantRoot uint64) {
	t.Run("set", func(t *testing.T) {
		s, h, c := newSet(1 << 14)
		for _, k := range build {
			h.AfterInsert(h.InsertCS(c, k))
		}
		removed := h.RemoveCS(c, victim)
		h.AfterRemove(removed)
		if !removed {
			t.Fatalf("remove(%d) failed", victim)
		}
		for _, k := range build {
			if h.FindCS(c, k) != (k != victim) {
				t.Fatalf("after remove(%d): find(%d) = %v", victim, k, k == victim)
			}
		}
		if got := rootKey(s, c); wantRoot != 0 && got != wantRoot {
			t.Fatalf("root after remove(%d) = %d, want %d", victim, got, wantRoot)
		}
		if err := s.CheckInvariants(c); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRemoveTriggersRotation: deleting from the light side of a
// borderline-balanced tree must rotate.
//
//	  20
//	10  30
//	      40
func TestRemoveTriggersRotation(t *testing.T) {
	removeCase(t, []uint64{20, 10, 30, 40}, 10, 30)
}

// TestRemoveSuccessorDeep: removing a node whose in-order successor sits
// several levels down the right subtree — 50's is 56, left-most of the right
// subtree, two hops.
func TestRemoveSuccessorDeep(t *testing.T) {
	removeCase(t, []uint64{50, 25, 75, 12, 37, 62, 87, 56, 68}, 50, 0)
}

// TestRemoveSuccessorIsDirectChild: the successor is the right child
// itself (no left descent).
func TestRemoveSuccessorIsDirectChild(t *testing.T) {
	removeCase(t, []uint64{50, 25, 75, 80}, 50, 0)
}

// TestLargeRandomChurnKeepsHeightTight: extended random insert/remove
// churn must keep the height within the AVL bound at all times.
func TestLargeRandomChurnKeepsHeightTight(t *testing.T) {
	s, h, c := newSet(1 << 22)
	r := rng.NewXoshiro256(99)
	live := 0
	for i := 0; i < 30000; i++ {
		key := r.Uint64n(4096)
		if r.Intn(2) == 0 {
			if h.InsertCS(c, key) {
				live++
			}
			h.AfterInsert(true)
		} else {
			if h.RemoveCS(c, key) {
				live--
			}
			h.AfterRemove(true)
		}
		if i%2500 == 0 && live > 4 {
			root := mem.Addr(c.Read(s.head))
			height := int(c.Read(root + offHeight))
			// AVL bound: h <= 1.4405 log2(n+2)
			bound := 1
			for n := live + 2; n > 1; n /= 2 {
				bound++
			}
			if height > bound*3/2+1 {
				t.Fatalf("op %d: height %d exceeds AVL bound for %d keys", i, height, live)
			}
		}
	}
	if err := s.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}
