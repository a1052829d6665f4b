package htm

import "rtle/internal/mem"

// maxWords is the largest heap, in words, whose addresses the set keys
// below can hold: a key packs addr+1 (or line+1) into its low 32 bits
// beside the epoch, so the largest address must be at most 2^32-2. NewTx
// refuses a bigger heap instead of letting two addresses share a key.
const maxWords = 1<<32 - 1

// lineSet is an open-addressing set of cache-line indices, reset in O(1)
// by bumping an epoch tag instead of clearing the table. It is the
// transaction read/write-set index — the hot path of every transactional
// access — so it avoids Go map overhead.
//
// Slots hold epoch<<32 | (line+1); a slot belongs to the current
// generation only if its epoch matches (a live epoch is never 0, so a
// never-written slot fails the same test). Line indices are word addresses
// divided by the line size, so they fit whenever the heap respects
// maxWords.
//
// members lists the current generation densely, in insertion order: a
// commit walks its 1–20 lines, not the table sized for the capacity limit.
type lineSet struct {
	slots   []uint64
	mask    uint64
	members []uint64
	epoch   uint32
}

func newLineSet(capacity int) *lineSet {
	size := 4
	for size < capacity*2 {
		size <<= 1
	}
	return &lineSet{
		slots:   make([]uint64, size),
		mask:    uint64(size - 1),
		members: make([]uint64, 0, capacity),
		epoch:   1,
	}
}

// reset empties the set in O(1).
func (s *lineSet) reset() {
	s.members = s.members[:0]
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: lazily stale tags could collide
		clear(s.slots)
		s.epoch = 1
	}
}

func (s *lineSet) len() int { return len(s.members) }

// add inserts line, reporting whether it was absent. The caller bounds
// occupancy (capacity aborts fire before the table fills).
func (s *lineSet) add(line uint64) bool {
	want := uint64(s.epoch)<<32 | (line + 1)
	i := mix(line) & s.mask
	for {
		slot := s.slots[i]
		if slot == want {
			return false
		}
		if uint32(slot>>32) != s.epoch {
			s.slots[i] = want
			s.members = append(s.members, line)
			return true
		}
		i = (i + 1) & s.mask
	}
}

// contains reports membership.
func (s *lineSet) contains(line uint64) bool {
	want := uint64(s.epoch)<<32 | (line + 1)
	i := mix(line) & s.mask
	for {
		slot := s.slots[i]
		if slot == want {
			return true
		}
		if uint32(slot>>32) != s.epoch {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// forEach visits the members of the current generation in insertion
// order, stopping when fn returns false.
func (s *lineSet) forEach(fn func(line uint64) bool) {
	for _, line := range s.members {
		if !fn(line) {
			return
		}
	}
}

// writeMap buffers a transaction's speculative stores: an epoch-tagged
// open-addressing index from word address to a dense values array, plus
// the insertion order for deterministic write-back (order[i] was stored
// vals[i]).
type writeMap struct {
	keys  []uint64 // epoch<<32 | (addr+1); idx holds the slot's index into vals
	idx   []uint32
	vals  []uint64
	order []mem.Addr
	mask  uint64
	epoch uint32
}

func newWriteMap(capacity int) *writeMap {
	size := 4
	for size < capacity*2 {
		size <<= 1
	}
	return &writeMap{
		keys:  make([]uint64, size),
		idx:   make([]uint32, size),
		vals:  make([]uint64, 0, capacity),
		order: make([]mem.Addr, 0, capacity),
		mask:  uint64(size - 1),
		epoch: 1,
	}
}

func (w *writeMap) reset() {
	w.vals = w.vals[:0]
	w.order = w.order[:0]
	w.epoch++
	if w.epoch == 0 {
		clear(w.keys)
		w.epoch = 1
	}
}

func (w *writeMap) len() int { return len(w.order) }

// get returns the buffered value for addr, if any.
func (w *writeMap) get(a mem.Addr) (uint64, bool) {
	want := uint64(w.epoch)<<32 | (uint64(a) + 1)
	i := mix(uint64(a)) & w.mask
	for {
		k := w.keys[i]
		if k == want {
			return w.vals[w.idx[i]], true
		}
		if uint32(k>>32) != w.epoch {
			return 0, false
		}
		i = (i + 1) & w.mask
	}
}

// put buffers a store. The caller bounds occupancy via the line budget
// (at most WriteLines × WordsPerLine distinct words).
func (w *writeMap) put(a mem.Addr, v uint64) {
	want := uint64(w.epoch)<<32 | (uint64(a) + 1)
	i := mix(uint64(a)) & w.mask
	for {
		k := w.keys[i]
		if k == want {
			w.vals[w.idx[i]] = v
			return
		}
		if uint32(k>>32) != w.epoch {
			w.keys[i] = want
			w.idx[i] = uint32(len(w.vals))
			w.vals = append(w.vals, v)
			w.order = append(w.order, a)
			return
		}
		i = (i + 1) & w.mask
	}
}

// forEachOrdered visits buffered stores in insertion order with their
// final values.
func (w *writeMap) forEachOrdered(fn func(a mem.Addr, v uint64)) {
	for i, a := range w.order {
		fn(a, w.vals[i])
	}
}

// mix is a Fibonacci hash: one multiply by 2^64/φ, upper half kept so every
// bit of a 32-bit key reaches the index (sets_test.go bounds the probe runs).
func mix(x uint64) uint64 { return (x * 0x9e3779b97f4a7c15) >> 32 }
