// Package tmap implements the transaction-safe hash map of the paper's
// §6.4.1: the structure that replaces the STL hash map in the
// transactified ccTSA, instantiated for uint64 keys and values (packed
// k-mers and their counts).
//
// The map is a fixed-capacity chained hash table in simulated memory.
// Buckets are head-pointer words (eight share a cache line, so neighbouring
// buckets conflict — as they would on real hardware); chain nodes occupy a
// line each. All mutation happens through core.Context inside atomic
// blocks; sizing is fixed at construction, as ccTSA sizes its tables up
// front from the expected k-mer count.
package tmap

import (
	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/wanghash"
)

// Chain-node field offsets.
const (
	offKey  = 0
	offVal  = 1
	offNext = 2
)

// Map is a fixed-capacity chained hash map in simulated memory.
type Map struct {
	m       *mem.Memory
	buckets mem.Addr
	nb      uint64
}

// New allocates a map with nbuckets chains (rounded up to a power of two).
func New(m *mem.Memory, nbuckets int) *Map {
	nb := uint64(1)
	for nb < uint64(nbuckets) {
		nb <<= 1
	}
	return &Map{m: m, buckets: m.AllocAligned(int(nb)), nb: nb}
}

// Memory returns the heap the map lives in.
func (mp *Map) Memory() *mem.Memory { return mp.m }

// Buckets returns the bucket count.
func (mp *Map) Buckets() int { return int(mp.nb) }

// Handle is the per-thread access handle (scratch allocation cache). A
// Handle must not be shared between goroutines.
//
// AddCS and PutCS link the handle's spare node when the key is new, and
// DeleteCS unlinks a node; each forgets what the previous execution did, so
// after any number of re-executions the handle remembers the committed one.
// Whoever ran the atomic block calls Committed once it has returned.
type Handle struct {
	mp        *Map
	spare     mem.Addr
	freeList  []mem.Addr
	usedSpare bool
	removed   mem.Addr
}

// NewHandle returns a fresh per-thread handle.
func (mp *Map) NewHandle() *Handle { return &Handle{mp: mp} }

func (mp *Map) bucketAddr(key uint64) mem.Addr {
	return mp.buckets + mem.Addr(wanghash.Hash(key, mp.nb))
}

// GetCS looks up key. It must run inside an atomic block (or on a
// quiescent map).
func (h *Handle) GetCS(c core.Context, key uint64) (uint64, bool) {
	n := mem.Addr(c.Read(h.mp.bucketAddr(key)))
	for n != mem.Nil {
		if c.Read(n+offKey) == key {
			return c.Read(n + offVal), true
		}
		n = mem.Addr(c.Read(n + offNext))
	}
	return 0, false
}

// AddCS adds delta to key's value, inserting the key (with value delta) if
// absent, and returns the new value. This is ccTSA's insert-or-increment
// k-mer counting critical section.
func (h *Handle) AddCS(c core.Context, key, delta uint64) uint64 {
	h.usedSpare = false
	ba := h.mp.bucketAddr(key)
	head := mem.Addr(c.Read(ba))
	for n := head; n != mem.Nil; n = mem.Addr(c.Read(n + offNext)) {
		if c.Read(n+offKey) == key {
			nv := c.Read(n+offVal) + delta
			c.Write(n+offVal, nv)
			return nv
		}
	}
	n := h.ensureSpare()
	c.Write(n+offKey, key)
	c.Write(n+offVal, delta)
	c.Write(n+offNext, uint64(head))
	c.Write(ba, uint64(n))
	h.usedSpare = true
	return delta
}

// PutCS sets key's value, inserting if absent; reports whether the key was
// newly inserted.
func (h *Handle) PutCS(c core.Context, key, val uint64) bool {
	h.usedSpare = false
	ba := h.mp.bucketAddr(key)
	head := mem.Addr(c.Read(ba))
	for n := head; n != mem.Nil; n = mem.Addr(c.Read(n + offNext)) {
		if c.Read(n+offKey) == key {
			c.Write(n+offVal, val)
			return false
		}
	}
	n := h.ensureSpare()
	c.Write(n+offKey, key)
	c.Write(n+offVal, val)
	c.Write(n+offNext, uint64(head))
	c.Write(ba, uint64(n))
	h.usedSpare = true
	return true
}

// DeleteCS removes key, reporting whether it was present. The unlinked
// node is recorded for post-commit recycling.
func (h *Handle) DeleteCS(c core.Context, key uint64) bool {
	h.removed = mem.Nil
	ba := h.mp.bucketAddr(key)
	prev := mem.Nil
	n := mem.Addr(c.Read(ba))
	for n != mem.Nil {
		next := mem.Addr(c.Read(n + offNext))
		if c.Read(n+offKey) == key {
			if prev == mem.Nil {
				c.Write(ba, uint64(next))
			} else {
				c.Write(prev+offNext, uint64(next))
			}
			h.removed = n
			return true
		}
		prev, n = n, next
	}
	return false
}

// --- Atomic wrappers -------------------------------------------------------

// Get runs GetCS atomically on t.
func (h *Handle) Get(t core.Thread, key uint64) (uint64, bool) {
	var v uint64
	var ok bool
	t.Atomic(func(c core.Context) { v, ok = h.GetCS(c, key) })
	return v, ok
}

// Add runs AddCS atomically on t.
func (h *Handle) Add(t core.Thread, key, delta uint64) uint64 {
	var nv uint64
	t.Atomic(func(c core.Context) { nv = h.AddCS(c, key, delta) })
	h.Committed()
	return nv
}

// Put runs PutCS atomically on t.
func (h *Handle) Put(t core.Thread, key, val uint64) bool {
	var inserted bool
	t.Atomic(func(c core.Context) { inserted = h.PutCS(c, key, val) })
	h.Committed()
	return inserted
}

// Delete runs DeleteCS atomically on t.
func (h *Handle) Delete(t core.Thread, key uint64) bool {
	var ok bool
	t.Atomic(func(c core.Context) { ok = h.DeleteCS(c, key) })
	h.Committed()
	return ok
}

// --- Direct (unsynchronized) wrappers --------------------------------------
//
// For single-threaded setup and quiescent phases: they run the CS body via
// the given context and call Committed immediately (there is no speculation
// to wait for).

// AddDirect is AddCS plus Committed, for quiescent use.
func (h *Handle) AddDirect(c core.Context, key, delta uint64) uint64 {
	nv := h.AddCS(c, key, delta)
	h.Committed()
	return nv
}

// PutDirect is PutCS plus Committed, for quiescent use.
func (h *Handle) PutDirect(c core.Context, key, val uint64) bool {
	inserted := h.PutCS(c, key, val)
	h.Committed()
	return inserted
}

// DeleteDirect is DeleteCS plus Committed, for quiescent use.
func (h *Handle) DeleteDirect(c core.Context, key uint64) bool {
	ok := h.DeleteCS(c, key)
	h.Committed()
	return ok
}

// Committed is the post-commit step of every mutating *CS body: call it
// after the atomic block that ran AddCS, PutCS or DeleteCS on this handle
// has committed (the wrappers above do). The spare node the body linked
// stops being the handle's, the node it unlinked joins the free list, and
// both are forgotten — so a second call, or one with nothing pending, does
// nothing.
func (h *Handle) Committed() {
	if h.usedSpare {
		h.spare, h.usedSpare = mem.Nil, false
	}
	if h.removed != mem.Nil {
		h.freeList = append(h.freeList, h.removed)
		h.removed = mem.Nil
	}
}

func (h *Handle) ensureSpare() mem.Addr {
	if h.spare == mem.Nil {
		if n := len(h.freeList); n > 0 {
			h.spare = h.freeList[n-1]
			h.freeList = h.freeList[:n-1]
		} else {
			h.spare = h.mp.m.AllocLines(1)
		}
	}
	return h.spare
}

// --- Whole-map helpers (quiescent use) -------------------------------------

// Len counts entries via c.
func (mp *Map) Len(c core.Context) int {
	n := 0
	mp.ForEach(c, func(uint64, uint64) bool { n++; return true })
	return n
}

// ForEach visits every (key, value) pair via c until fn returns false.
// Iteration order is unspecified. Intended for quiescent phases (ccTSA's
// processing phase walks the table after the build phase completes).
func (mp *Map) ForEach(c core.Context, fn func(key, val uint64) bool) {
	mp.forEachRange(c, 0, int(mp.nb), fn)
}

// ForEachBucketRange visits every pair whose bucket index lies in
// [lo, hi), quiescently. Workers use disjoint ranges as work chunks.
func (mp *Map) ForEachBucketRange(c core.Context, lo, hi int, fn func(key, val uint64)) {
	mp.forEachRange(c, lo, hi, func(k, v uint64) bool { fn(k, v); return true })
}

func (mp *Map) forEachRange(c core.Context, lo, hi int, fn func(key, val uint64) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > int(mp.nb) {
		hi = int(mp.nb)
	}
	for b := lo; b < hi; b++ {
		n := mem.Addr(c.Read(mp.buckets + mem.Addr(b)))
		for n != mem.Nil {
			if !fn(c.Read(n+offKey), c.Read(n+offVal)) {
				return
			}
			n = mem.Addr(c.Read(n + offNext))
		}
	}
}
