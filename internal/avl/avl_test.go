package avl

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"rtle/internal/core"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// newSet returns an empty set, a handle, and a direct (unsynchronized)
// context for sequential testing.
func newSet(words int) (*Set, *Handle, core.Context) {
	m := mem.New(words)
	s := New(m)
	return s, s.NewHandle(), core.Direct(m)
}

func TestEmptySet(t *testing.T) {
	s, h, c := newSet(1 << 12)
	if h.FindCS(c, 1) {
		t.Fatal("empty set claims to contain 1")
	}
	if s.Size(c) != 0 {
		t.Fatalf("empty set size %d", s.Size(c))
	}
	if err := s.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestInsertFind(t *testing.T) {
	_, h, c := newSet(1 << 12)
	if !h.InsertCS(c, 10) {
		t.Fatal("insert into empty set reported no change")
	}
	if !h.FindCS(c, 10) {
		t.Fatal("inserted key not found")
	}
	if h.FindCS(c, 11) {
		t.Fatal("absent key found")
	}
}

func TestInsertDuplicate(t *testing.T) {
	_, h, c := newSet(1 << 12)
	h.InsertCS(c, 5)
	h.AfterInsert(true)
	if h.InsertCS(c, 5) {
		t.Fatal("duplicate insert reported a change")
	}
}

func TestRemove(t *testing.T) {
	s, h, c := newSet(1 << 12)
	h.InsertCS(c, 5)
	h.AfterInsert(true)
	if !h.RemoveCS(c, 5) {
		t.Fatal("remove of present key reported no change")
	}
	if h.FindCS(c, 5) {
		t.Fatal("removed key still found")
	}
	if h.RemoveCS(c, 5) {
		t.Fatal("remove of absent key reported a change")
	}
	if s.Size(c) != 0 {
		t.Fatalf("size %d after removing the only key", s.Size(c))
	}
}

func TestAscendingInsertStaysBalanced(t *testing.T) {
	s, h, c := newSet(1 << 14)
	for k := uint64(0); k < 100; k++ {
		if !h.InsertCS(c, k) {
			t.Fatalf("insert %d failed", k)
		}
		h.AfterInsert(true)
		if err := s.CheckInvariants(c); err != nil {
			t.Fatalf("after inserting %d: %v", k, err)
		}
	}
	if s.Size(c) != 100 {
		t.Fatalf("size %d, want 100", s.Size(c))
	}
}

func TestDescendingInsertStaysBalanced(t *testing.T) {
	s, h, c := newSet(1 << 14)
	for k := 100; k > 0; k-- {
		h.InsertCS(c, uint64(k))
		h.AfterInsert(true)
		if err := s.CheckInvariants(c); err != nil {
			t.Fatalf("after inserting %d: %v", k, err)
		}
	}
}

func TestKeysSorted(t *testing.T) {
	s, h, c := newSet(1 << 14)
	in := []uint64{5, 2, 9, 1, 7, 3, 8, 6, 4}
	for _, k := range in {
		h.InsertCS(c, k)
		h.AfterInsert(true)
	}
	keys := s.Keys(c)
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("Keys not sorted: %v", keys)
	}
	if len(keys) != len(in) {
		t.Fatalf("len(Keys) = %d, want %d", len(keys), len(in))
	}
}

func TestRemoveLeaf(t *testing.T) {
	s, h, c := newSet(1 << 12)
	for _, k := range []uint64{2, 1, 3} {
		h.InsertCS(c, k)
		h.AfterInsert(true)
	}
	h.RemoveCS(c, 1)
	if err := s.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	if h.FindCS(c, 1) || !h.FindCS(c, 2) || !h.FindCS(c, 3) {
		t.Fatal("wrong membership after leaf removal")
	}
}

func TestRemoveNodeWithOneChild(t *testing.T) {
	s, h, c := newSet(1 << 12)
	for _, k := range []uint64{2, 1, 4, 3} {
		h.InsertCS(c, k)
		h.AfterInsert(true)
	}
	h.RemoveCS(c, 4) // has only left child 3
	if err := s.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	if h.FindCS(c, 4) || !h.FindCS(c, 3) {
		t.Fatal("wrong membership after one-child removal")
	}
}

func TestRemoveNodeWithTwoChildren(t *testing.T) {
	s, h, c := newSet(1 << 12)
	for _, k := range []uint64{5, 2, 8, 1, 3, 7, 9} {
		h.InsertCS(c, k)
		h.AfterInsert(true)
	}
	h.RemoveCS(c, 5) // root with two children; successor is 7
	if err := s.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 2, 3, 7, 8, 9} {
		if !h.FindCS(c, k) {
			t.Fatalf("key %d lost", k)
		}
	}
	if h.FindCS(c, 5) {
		t.Fatal("removed key 5 still present")
	}
}

func TestRemoveRootRepeatedly(t *testing.T) {
	s, h, c := newSet(1 << 14)
	for k := uint64(0); k < 64; k++ {
		h.InsertCS(c, k)
		h.AfterInsert(true)
	}
	for s.Size(c) > 0 {
		root := mem.Addr(s.m.Load(s.head))
		key := s.m.Load(root + offKey)
		if !h.RemoveCS(c, key) {
			t.Fatalf("failed to remove root key %d", key)
		}
		h.AfterRemove(true)
		if err := s.CheckInvariants(c); err != nil {
			t.Fatalf("after removing root %d: %v", key, err)
		}
	}
}

func TestNodeRecycling(t *testing.T) {
	s, h, c := newSet(1 << 12)
	h.InsertCS(c, 1)
	h.AfterInsert(true)
	before := s.m.Allocated()
	for i := 0; i < 50; i++ {
		h.RemoveCS(c, 1)
		h.AfterRemove(true)
		h.InsertCS(c, 1)
		h.AfterInsert(true)
	}
	// One extra node may be allocated as the in-flight spare; churn must
	// not grow the heap beyond that.
	if grown := s.m.Allocated() - before; grown > 2*mem.WordsPerLine {
		t.Fatalf("heap grew by %d words over 50 remove/insert cycles; free list not working", grown)
	}
}

// TestHandleSize pins the handle at two cache lines. The harness allocates
// one handle per thread back to back and every operation rewrites path's
// length at the head of its handle: at 136 bytes (the 144-byte size class)
// handle k's tail shares a line with handle k+1's head, which cost
// avl_mixed 4 %.
func TestHandleSize(t *testing.T) {
	if got := unsafe.Sizeof(Handle{}); got > 128 {
		t.Fatalf("avl.Handle is %d bytes, want at most 128", got)
	}
}

func TestSpareSurvivesFailedInsert(t *testing.T) {
	_, h, c := newSet(1 << 12)
	h.InsertCS(c, 1)
	h.AfterInsert(true)
	// Failed insert (duplicate) must not consume the spare.
	h.InsertCS(c, 1)
	h.AfterInsert(false)
	spare := h.spare
	if spare == mem.Nil {
		t.Skip("no spare allocated for duplicate insert (descent found the key first)")
	}
	h.InsertCS(c, 2)
	h.AfterInsert(true)
	if h.spare != mem.Nil {
		t.Fatal("spare not consumed by successful insert")
	}
}

// TestModelRandomOps drives the set against a map model with random
// operations, checking results and invariants.
func TestModelRandomOps(t *testing.T) {
	s, h, c := newSet(1 << 20)
	model := map[uint64]bool{}
	r := rng.NewXoshiro256(7)
	const keyRange = 128
	for i := 0; i < 20000; i++ {
		key := r.Uint64n(keyRange)
		switch r.Intn(3) {
		case 0:
			got := h.InsertCS(c, key)
			h.AfterInsert(got)
			if want := !model[key]; got != want {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, key, got, want)
			}
			model[key] = true
		case 1:
			got := h.RemoveCS(c, key)
			h.AfterRemove(got)
			if want := model[key]; got != want {
				t.Fatalf("op %d: Remove(%d) = %v, want %v", i, key, got, want)
			}
			delete(model, key)
		default:
			if got := h.FindCS(c, key); got != model[key] {
				t.Fatalf("op %d: Find(%d) = %v, want %v", i, key, got, model[key])
			}
		}
		if i%500 == 0 {
			if err := s.CheckInvariants(c); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := s.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Size(c), len(model); got != want {
		t.Fatalf("final size %d, want %d", got, want)
	}
	for _, k := range s.Keys(c) {
		if !model[k] {
			t.Fatalf("tree holds key %d absent from model", k)
		}
	}
}

// TestQuickInsertRemoveSequence: any random sequence of inserts followed
// by removing a subset leaves exactly the set difference, balanced.
func TestQuickInsertRemoveSequence(t *testing.T) {
	f := func(ins []uint16, rem []uint16) bool {
		s, h, c := newSet(1 << 21)
		model := map[uint64]bool{}
		for _, k := range ins {
			got := h.InsertCS(c, uint64(k))
			h.AfterInsert(got)
			if got == model[uint64(k)] { // must be inverse
				return false
			}
			model[uint64(k)] = true
		}
		for _, k := range rem {
			got := h.RemoveCS(c, uint64(k))
			h.AfterRemove(got)
			if got != model[uint64(k)] {
				return false
			}
			delete(model, uint64(k))
		}
		if s.CheckInvariants(c) != nil {
			return false
		}
		return s.Size(c) == len(model)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTreeHeightLogarithmic checks the AVL height bound (~1.44 log2 n).
func TestTreeHeightLogarithmic(t *testing.T) {
	s, h, c := newSet(1 << 22)
	const n = 10000
	for k := uint64(0); k < n; k++ {
		h.InsertCS(c, k)
		h.AfterInsert(true)
	}
	root := mem.Addr(c.Read(s.head))
	height := c.Read(root + offHeight)
	// 1.44 * log2(10000) ≈ 19.1
	if height > 20 {
		t.Fatalf("height %d exceeds the AVL bound for %d keys", height, n)
	}
}

func TestRangeCountSequential(t *testing.T) {
	_, h, c := newSet(1 << 16)
	for k := uint64(0); k < 100; k += 2 { // evens 0..98
		h.InsertCS(c, k)
		h.AfterInsert(true)
	}
	cases := []struct {
		lo, hi uint64
		want   int
	}{
		{0, 98, 50},   // everything
		{0, 0, 1},     // single present key
		{1, 1, 0},     // single absent key
		{10, 20, 6},   // 10,12,14,16,18,20
		{11, 19, 4},   // 12,14,16,18
		{90, 200, 5},  // 90..98
		{99, 1000, 0}, // beyond
		{50, 40, 0},   // inverted range
	}
	for _, tc := range cases {
		if got := h.RangeCountCS(c, tc.lo, tc.hi); got != tc.want {
			t.Errorf("RangeCount(%d, %d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestQuickRangeCountMatchesModel(t *testing.T) {
	_, h, c := newSet(1 << 20)
	model := map[uint64]bool{}
	r := rng.NewXoshiro256(21)
	for i := 0; i < 300; i++ {
		k := r.Uint64n(512)
		h.InsertCS(c, k)
		h.AfterInsert(true)
		model[k] = true
	}
	f := func(a, b uint16) bool {
		lo, hi := uint64(a)%512, uint64(b)%512
		want := 0
		for k := range model {
			if k >= lo && k <= hi {
				want++
			}
		}
		return h.RangeCountCS(c, lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeCountCapacityFallback(t *testing.T) {
	// Through a method with a tight HTM read budget, a wide scan must
	// still complete (via the lock) and count correctly.
	m := mem.New(1 << 22)
	pol := core.Policy{HTM: htm.Config{ReadLines: 32}}
	meth := core.NewFGTLE(m, 256, pol)
	s := New(m)
	h := s.NewHandle()
	dc := core.Direct(m)
	for k := uint64(0); k < 1000; k++ {
		h.InsertCS(dc, k)
		h.AfterInsert(true)
	}
	th := meth.NewThread()
	h2 := s.NewHandle()
	if got := h2.RangeCount(th, 0, 999); got != 1000 {
		t.Fatalf("wide scan = %d, want 1000", got)
	}
	st := th.Stats()
	if st.LockRuns != 1 {
		t.Fatalf("wide scan LockRuns = %d, want 1 (capacity fallback)", st.LockRuns)
	}
	if st.FastAborts[htm.Capacity] == 0 {
		t.Fatal("no capacity aborts recorded for a scan exceeding the read budget")
	}
	// A narrow scan fits in HTM.
	th2 := meth.NewThread()
	if got := h2.RangeCount(th2, 10, 20); got != 11 {
		t.Fatalf("narrow scan = %d, want 11", got)
	}
	if th2.Stats().FastCommits != 1 {
		t.Fatalf("narrow scan did not commit on the fast path: %+v", *th2.Stats())
	}
}

// TestHandleWrappersDoNotAllocate pins the per-call cost of the Thread
// wrappers: the bodies are bound once in NewHandle, so a steady-state
// Contains / Insert / Remove through a real method allocates nothing.
func TestHandleWrappersDoNotAllocate(t *testing.T) {
	m := mem.New(1 << 20)
	th := core.NewFGTLE(m, 256, core.Policy{}).NewThread()
	h := New(m).NewHandle()
	for k := uint64(0); k < 512; k += 2 {
		h.Insert(th, k)
	}
	var k uint64
	allocs := testing.AllocsPerRun(500, func() {
		k = (k + 7) % 512
		h.Contains(th, k)
		// Remove-then-insert recycles the node through the free list,
		// whose backing array AllocsPerRun's warm-up call grows.
		if h.Remove(th, k) {
			h.Insert(th, k)
		}
	})
	if allocs != 0 {
		t.Fatalf("Contains+Remove+Insert allocate %v objects per run, want 0", allocs)
	}
}
