package htm

import (
	"math/bits"

	"rtle/internal/mem"
)

// maxWords is the largest heap, in words, whose addresses the set keys
// below can hold: a key packs line+1 into its low 32 bits beside the epoch.
// Keys are lines, which would allow eight times more, but the bound is
// kept in words, so the largest address must be at most 2^32-2. NewTx
// refuses a bigger heap instead of letting two addresses share a key.
const maxWords = 1<<32 - 1

// lineSet is an open-addressing set of cache-line indices, reset in O(1)
// by bumping an epoch tag instead of clearing the table. It indexes a
// transaction's read set once the read log folds, and every write set —
// the hot path of every transactional access — so it avoids Go map
// overhead.
//
// Slots hold epoch<<32 | (line+1); a slot belongs to the current
// generation only if its epoch matches (a live epoch is never 0, so a
// never-written slot fails the same test). Line indices are word addresses
// divided by the line size, so they fit whenever the heap respects
// maxWords. idx[i] is the position in members of the line in slots[i].
//
// members lists the current generation densely, in insertion order: a
// commit walks its 1–20 lines, not the table sized for the capacity limit.
// The table doubles when an insert would fill it past half; a Tx's
// capacity limits stop it before that, so only a WriteSet with no limit
// grows.
type lineSet struct {
	slots   []uint64
	idx     []uint32
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
		idx:     make([]uint32, size),
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

// add inserts line, reporting whether it was absent.
func (s *lineSet) add(line uint64) bool {
	n := len(s.members)
	return s.insert(line, n+1) == n
}

// insert returns line's position in members, adding an absent line as the
// last member. If the set already holds limit lines, an absent line is
// refused instead: insert returns -1 and changes nothing.
func (s *lineSet) insert(line uint64, limit int) int {
	want := uint64(s.epoch)<<32 | (line + 1)
	i := mix(line) & s.mask
	for ; uint32(s.slots[i]>>32) == s.epoch; i = (i + 1) & s.mask {
		if s.slots[i] == want {
			return int(s.idx[i])
		}
	}
	n := len(s.members)
	if n >= limit {
		return -1
	}
	if 2*(n+1) > len(s.slots) {
		s.grow()
		return s.insert(line, limit)
	}
	s.slots[i], s.idx[i] = want, uint32(n)
	s.members = append(s.members, line)
	return n
}

// grow doubles the table and re-inserts the current generation.
func (s *lineSet) grow() {
	size := 2 * len(s.slots)
	s.slots, s.idx, s.mask = make([]uint64, size), make([]uint32, size), uint64(size-1)
	for n, line := range s.members {
		i := mix(line) & s.mask
		for s.slots[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = uint64(s.epoch)<<32 | (line + 1)
		s.idx[i] = uint32(n)
	}
}

// find returns line's position in members, or -1 if it is absent.
func (s *lineSet) find(line uint64) int {
	want := uint64(s.epoch)<<32 | (line + 1)
	for i := mix(line) & s.mask; uint32(s.slots[i]>>32) == s.epoch; i = (i + 1) & s.mask {
		if s.slots[i] == want {
			return int(s.idx[i])
		}
	}
	return -1
}

// contains reports membership.
func (s *lineSet) contains(line uint64) bool { return s.find(line) >= 0 }

// WriteSet buffers a section's stores by cache line, as RTM's store buffer
// does: for each written line, in first-write order, the line's words, a
// mask of the ones written, and the pre-lock version a committing Tx
// records there. It is the one write buffer of the tree: a Tx's speculative
// stores and a software section's held-back writes (core.ValueLog). A
// WriteSet belongs to one thread.
type WriteSet struct {
	lines   *lineSet
	entries []lineEntry // entries[i] holds the words of lines.members[i]; stale past lines.len()
}

type lineEntry struct {
	words [mem.WordsPerLine]uint64
	mask  uint8
	ver   uint64
}

// NewWriteSet returns an empty set with room for lines lines before it
// grows.
func NewWriteSet(lines int) WriteSet {
	return WriteSet{lines: newLineSet(lines), entries: make([]lineEntry, max(lines, 1))}
}

// Put buffers the store of v to a. It refuses, changing nothing, a store
// that would add a line to a set already holding limit lines.
func (w *WriteSet) Put(a mem.Addr, v uint64, limit int) bool {
	n := w.lines.len()
	i := w.lines.insert(mem.LineOf(a), limit)
	if i < 0 {
		return false
	}
	if i == len(w.entries) { // only a set with no limit outgrows its entries
		w.entries = append(w.entries, make([]lineEntry, i)...)
	}
	e := &w.entries[i]
	if i == n { // a new line: its unwritten words read as 0
		*e = lineEntry{}
	}
	word := a & (mem.WordsPerLine - 1)
	e.words[word] = v
	e.mask |= 1 << word
	return true
}

// Get returns the buffered value of a, if a was written.
func (w *WriteSet) Get(a mem.Addr) (uint64, bool) {
	i := w.lines.find(mem.LineOf(a))
	if i < 0 {
		return 0, false
	}
	e, word := &w.entries[i], a&(mem.WordsPerLine-1)
	return e.words[word], e.mask>>word&1 != 0
}

// Lines returns the number of lines written.
func (w *WriteSet) Lines() int { return w.lines.len() }

// Reset empties the set, keeping its storage.
func (w *WriteSet) Reset() { w.lines.reset() }

// ForEach visits every buffered store with its last value: lines in
// first-write order, words in address order within a line.
func (w *WriteSet) ForEach(fn func(a mem.Addr, v uint64)) {
	for i, line := range w.lines.members {
		e := &w.entries[i]
		base := mem.Addr(line << mem.LineShift)
		for m := e.mask; m != 0; m &= m - 1 {
			word := bits.TrailingZeros8(m)
			fn(base+mem.Addr(word), e.words[word])
		}
	}
}

// mix is a Fibonacci hash: one multiply by 2^64/φ, upper half kept so every
// bit of a 32-bit key reaches the index (sets_test.go bounds the probe runs).
func mix(x uint64) uint64 { return (x * 0x9e3779b97f4a7c15) >> 32 }
