package avl

import (
	"rtle/internal/core"
	"rtle/internal/mem"
)

// Map is an ordered map from uint64 keys to uint64 values, backed by the
// same AVL machinery as Set (nodes carry one extra value word in their
// cache line). It adds the ordered queries an address-space manager needs
// — floor, ceiling, min — which the plain set benchmark does not.
//
// The concurrency contract is Set's: all access through core.Context
// inside atomic blocks; per-thread MapHandle for scratch state.
type Map struct {
	set Set
}

// NewMap allocates an empty ordered map on m.
func NewMap(m *mem.Memory) *Map {
	return &Map{set: *New(m)}
}

// Memory returns the heap the map lives in.
func (mp *Map) Memory() *mem.Memory { return mp.set.m }

// MapHandle is the per-thread access handle for a Map: a Set's handle whose
// insert and remove bodies also carry the value word, kept in an unexported
// field so that the set's methods are not the map's.
type MapHandle struct {
	h *Handle
}

// NewHandle returns a fresh per-thread handle.
func (mp *Map) NewHandle() *MapHandle {
	h := mp.set.NewHandle()
	h.vals = true
	return &MapHandle{h: h}
}

// GetCS looks up key. It must run inside an atomic block (or on a
// quiescent map).
func (h *MapHandle) GetCS(c core.Context, key uint64) (uint64, bool) {
	cur := mem.Addr(c.Read(h.h.s.head))
	for cur != mem.Nil {
		k := c.Read(cur + offKey)
		switch {
		case key == k:
			return c.Read(cur + offVal), true
		case key > k:
			cur = mem.Addr(c.Read(cur + offRight))
		default:
			cur = mem.Addr(c.Read(cur + offLeft))
		}
	}
	return 0, false
}

// PutCS sets key's value, inserting if absent; reports whether the key
// was newly inserted.
func (h *MapHandle) PutCS(c core.Context, key, val uint64) bool {
	h.h.val = val
	return h.h.InsertCS(c, key)
}

// RemoveCS removes key, reporting whether the map changed.
func (h *MapHandle) RemoveCS(c core.Context, key uint64) bool {
	return h.h.RemoveCS(c, key)
}

// FloorCS returns the greatest entry with key <= bound.
func (h *MapHandle) FloorCS(c core.Context, bound uint64) (key, val uint64, ok bool) {
	cur := mem.Addr(c.Read(h.h.s.head))
	for cur != mem.Nil {
		k := c.Read(cur + offKey)
		switch {
		case k == bound:
			return k, c.Read(cur + offVal), true
		case k < bound:
			key, val, ok = k, c.Read(cur+offVal), true
			cur = mem.Addr(c.Read(cur + offRight))
		default:
			cur = mem.Addr(c.Read(cur + offLeft))
		}
	}
	return key, val, ok
}

// CeilingCS returns the least entry with key >= bound.
func (h *MapHandle) CeilingCS(c core.Context, bound uint64) (key, val uint64, ok bool) {
	cur := mem.Addr(c.Read(h.h.s.head))
	for cur != mem.Nil {
		k := c.Read(cur + offKey)
		switch {
		case k == bound:
			return k, c.Read(cur + offVal), true
		case k > bound:
			key, val, ok = k, c.Read(cur+offVal), true
			cur = mem.Addr(c.Read(cur + offLeft))
		default:
			cur = mem.Addr(c.Read(cur + offRight))
		}
	}
	return key, val, ok
}

// MinCS returns the least entry.
func (h *MapHandle) MinCS(c core.Context) (key, val uint64, ok bool) {
	cur := mem.Addr(c.Read(h.h.s.head))
	for cur != mem.Nil {
		key, val, ok = c.Read(cur+offKey), c.Read(cur+offVal), true
		cur = mem.Addr(c.Read(cur + offLeft))
	}
	return key, val, ok
}

// MaxCS returns the greatest entry.
func (h *MapHandle) MaxCS(c core.Context) (key, val uint64, ok bool) {
	cur := mem.Addr(c.Read(h.h.s.head))
	for cur != mem.Nil {
		key, val, ok = c.Read(cur+offKey), c.Read(cur+offVal), true
		cur = mem.Addr(c.Read(cur + offRight))
	}
	return key, val, ok
}

// --- Post-commit bookkeeping (same contract as Set's Handle) ---------------

// AfterPut finalizes bookkeeping after a committed atomic block that
// called PutCS; pass the committed execution's result.
func (h *MapHandle) AfterPut(inserted bool) { h.h.AfterInsert(inserted) }

// AfterRemove recycles the node a committed RemoveCS unlinked.
func (h *MapHandle) AfterRemove(removed bool) { h.h.AfterRemove(removed) }

// --- Atomic wrappers --------------------------------------------------------

// Get runs GetCS atomically on t.
func (h *MapHandle) Get(t core.Thread, key uint64) (uint64, bool) {
	var v uint64
	var ok bool
	t.Atomic(func(c core.Context) { v, ok = h.GetCS(c, key) })
	return v, ok
}

// Put runs PutCS atomically on t.
func (h *MapHandle) Put(t core.Thread, key, val uint64) bool {
	h.h.val = val
	return h.h.Insert(t, key)
}

// Remove runs RemoveCS atomically on t.
func (h *MapHandle) Remove(t core.Thread, key uint64) bool {
	return h.h.Remove(t, key)
}

// Floor runs FloorCS atomically on t.
func (h *MapHandle) Floor(t core.Thread, bound uint64) (uint64, uint64, bool) {
	var k, v uint64
	var ok bool
	t.Atomic(func(c core.Context) { k, v, ok = h.FloorCS(c, bound) })
	return k, v, ok
}

// --- Whole-map helpers (quiescent use) ---------------------------------------

// Len counts entries via c.
func (mp *Map) Len(c core.Context) int { return mp.set.Size(c) }

// Entries returns all (key, value) pairs in ascending key order via c.
func (mp *Map) Entries(c core.Context) (keys, vals []uint64) {
	entriesRec(c, mem.Addr(c.Read(mp.set.head)), &keys, &vals)
	return keys, vals
}

func entriesRec(c core.Context, n mem.Addr, keys, vals *[]uint64) {
	if n == mem.Nil {
		return
	}
	entriesRec(c, mem.Addr(c.Read(n+offLeft)), keys, vals)
	*keys = append(*keys, c.Read(n+offKey))
	*vals = append(*vals, c.Read(n+offVal))
	entriesRec(c, mem.Addr(c.Read(n+offRight)), keys, vals)
}

// CheckInvariants verifies BST ordering, heights, and balance via c.
func (mp *Map) CheckInvariants(c core.Context) error {
	return mp.set.CheckInvariants(c)
}
