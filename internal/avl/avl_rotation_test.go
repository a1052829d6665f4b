package avl

import (
	"slices"
	"testing"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// tree drives a Set or a Map through the operations they share, keys only:
// the rotation and successor cases below run on both, because both run the
// one InsertCS/RemoveCS. A Map stores valOf(key) with every key, which check
// reads back.
type tree struct {
	name           string
	set            *Set // the structure itself, or the one under the Map
	c              core.Context
	insert, remove func(key uint64) bool // the *CS body plus its After* step
	find           func(key uint64) bool
	entries        func() (keys, vals []uint64) // nil for a Set
}

func valOf(key uint64) uint64 { return key*10 + 1 }

func bothTrees(words int) []*tree {
	s, sh, sc := newSet(words)
	mp, mh, mc := newMapT(words)
	return []*tree{{
		name: "set", set: s, c: sc,
		insert: func(k uint64) bool { ok := sh.InsertCS(sc, k); sh.AfterInsert(ok); return ok },
		remove: func(k uint64) bool { ok := sh.RemoveCS(sc, k); sh.AfterRemove(ok); return ok },
		find:   func(k uint64) bool { return sh.FindCS(sc, k) },
	}, {
		name: "map", set: &mp.set, c: mc,
		insert:  func(k uint64) bool { ok := mh.PutCS(mc, k, valOf(k)); mh.AfterPut(ok); return ok },
		remove:  func(k uint64) bool { ok := mh.RemoveCS(mc, k); mh.AfterRemove(ok); return ok },
		find:    func(k uint64) bool { _, ok := mh.GetCS(mc, k); return ok },
		entries: func() ([]uint64, []uint64) { return mp.Entries(mc) },
	}}
}

func (tr *tree) rootKey() uint64 {
	root := mem.Addr(tr.c.Read(tr.set.head))
	return tr.c.Read(root + offKey)
}

// shape lists every node's key and height in pre-order: two trees with the
// same shape hold the same keys in the same places.
func (tr *tree) shape() []uint64 {
	var out []uint64
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if n == mem.Nil {
			return
		}
		out = append(out, tr.c.Read(n+offKey), tr.c.Read(n+offHeight))
		walk(mem.Addr(tr.c.Read(n + offLeft)))
		walk(mem.Addr(tr.c.Read(n + offRight)))
	}
	walk(mem.Addr(tr.c.Read(tr.set.head)))
	return out
}

// check verifies the AVL invariants and, on a Map, that every key still
// carries its own value — the successor splice moves a key between nodes and
// must move its value with it.
func (tr *tree) check(t *testing.T) {
	t.Helper()
	if err := tr.set.CheckInvariants(tr.c); err != nil {
		t.Fatal(err)
	}
	if tr.entries == nil {
		return
	}
	keys, vals := tr.entries()
	for i, k := range keys {
		if vals[i] != valOf(k) {
			t.Fatalf("key %d carries value %d, want %d", k, vals[i], valOf(k))
		}
	}
}

// onBoth runs one case on a Set and on a Map and requires the two to end in
// the same shape.
func onBoth(t *testing.T, words int, run func(t *testing.T, tr *tree)) {
	var shapes [][]uint64
	for _, tr := range bothTrees(words) {
		t.Run(tr.name, func(t *testing.T) {
			run(t, tr)
			tr.check(t)
			shapes = append(shapes, tr.shape())
		})
	}
	if len(shapes) == 2 && !slices.Equal(shapes[0], shapes[1]) {
		t.Fatalf("Set and Map ended in different trees (key, height in pre-order):\nset %v\nmap %v", shapes[0], shapes[1])
	}
}

// The four classic rebalancing cases, checked by root identity: inserting
// three keys in each problematic order must leave the middle key at the
// root with height 2.
func rotationCase(t *testing.T, keys [3]uint64) {
	onBoth(t, 1<<12, func(t *testing.T, tr *tree) {
		for _, k := range keys {
			tr.insert(k)
		}
		if got := tr.rootKey(); got != 20 {
			t.Fatalf("root after inserting %v = %d, want 20", keys, got)
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
	onBoth(t, 1<<14, func(t *testing.T, tr *tree) {
		for _, k := range build {
			tr.insert(k)
		}
		if !tr.remove(victim) {
			t.Fatalf("remove(%d) failed", victim)
		}
		for _, k := range build {
			if tr.find(k) != (k != victim) {
				t.Fatalf("after remove(%d): find(%d) = %v", victim, k, k == victim)
			}
		}
		if got := tr.rootKey(); wantRoot != 0 && got != wantRoot {
			t.Fatalf("root after remove(%d) = %d, want %d", victim, got, wantRoot)
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
