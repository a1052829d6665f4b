package htm

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rtle/internal/mem"
	"rtle/internal/rng"
)

func TestLineSetAddContains(t *testing.T) {
	s := newLineSet(16)
	if s.contains(5) || s.find(5) != -1 {
		t.Fatal("empty set contains 5")
	}
	if !s.add(5) || s.add(5) {
		t.Fatal("add did not report 5 new once, then present")
	}
	if !s.contains(5) || s.find(5) != 0 || s.len() != 1 {
		t.Fatalf("membership wrong: find=%d len=%d", s.find(5), s.len())
	}
}

func TestLineSetZeroLine(t *testing.T) {
	s := newLineSet(16)
	if !s.add(0) || !s.contains(0) {
		t.Fatal("line 0 was not added")
	}
}

func TestLineSetResetIsEmpty(t *testing.T) {
	s := newLineSet(16)
	for i := range uint64(10) {
		s.add(i)
	}
	s.reset()
	for i := range uint64(10) {
		if s.contains(i) || s.len() != 0 {
			t.Fatalf("member %d or a length of %d survived reset", i, s.len())
		}
	}
}

func TestLineSetManyGenerations(t *testing.T) {
	s := newLineSet(8)
	for gen := range uint64(1000) {
		for i := range uint64(8) {
			if !s.add(gen*100 + i) {
				t.Fatalf("gen %d: add %d reported duplicate", gen, gen*100+i)
			}
		}
		if s.len() != 8 {
			t.Fatalf("gen %d: len %d", gen, s.len())
		}
		s.reset()
	}
}

func TestLineSetEpochWrap(t *testing.T) {
	s := newLineSet(4)
	s.epoch = ^uint32(0) - 1 // force a wrap within a few resets
	for gen := range uint64(5) {
		s.add(gen)
		found := s.contains(gen)
		s.reset()
		if !found || s.contains(gen) {
			t.Fatalf("gen %d: member lost before, or kept after, a reset across the epoch wrap", gen)
		}
	}
}

func TestQuickLineSetMatchesMap(t *testing.T) {
	s := newLineSet(128)
	model := map[uint64]bool{}
	f := func(line uint16, resetNow bool) bool {
		if resetNow {
			s.reset()
			model = map[uint64]bool{}
			return s.len() == 0
		}
		l := uint64(line % 200)
		added := s.add(l)
		wantAdded := !model[l]
		model[l] = true
		return added == wantAdded && s.members[s.find(l)] == l && s.len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSetPutGet(t *testing.T) {
	w := NewWriteSet(16)
	if _, ok := w.Get(9); ok {
		t.Fatal("empty set returned a value")
	}
	w.Put(9, 100, 1)
	w.Put(9, 200, 1) // an overwrite keeps one line
	if v, ok := w.Get(9); !ok || v != 200 || w.Lines() != 1 {
		t.Fatalf("Get = %d,%v with %d lines, want 200,true with 1", v, ok, w.Lines())
	}
	if _, ok := w.Get(10); ok { // same line, never written
		t.Fatal("an unwritten word of a written line reads as present")
	}
}

func TestWriteSetForEachOrder(t *testing.T) {
	w := NewWriteSet(16)
	for i, a := range []mem.Addr{21, 3, 17, 1, 16} {
		w.Put(a, uint64(i), 16)
	}
	w.Put(3, 99, 16) // an overwrite keeps the line's place
	var got []mem.Addr
	var vals []uint64
	w.ForEach(func(a mem.Addr, v uint64) { got, vals = append(got, a), append(vals, v) })
	if !slices.Equal(got, []mem.Addr{16, 17, 21, 1, 3}) || !slices.Equal(vals, []uint64{4, 2, 0, 3, 99}) {
		t.Fatalf("ForEach yielded %v = %v: lines in first-write order, words in address order", got, vals)
	}
}

func TestWriteSetReset(t *testing.T) {
	w := NewWriteSet(8)
	w.Put(1, 10, 8)
	w.Reset()
	if w.Lines() != 0 {
		t.Fatalf("Lines after Reset = %d", w.Lines())
	}
	if _, ok := w.Get(1); ok {
		t.Fatal("stale store visible after Reset")
	}
}

func TestWriteSetEpochWrap(t *testing.T) {
	w := NewWriteSet(4)
	w.lines.epoch = ^uint32(0) - 1 // force a wrap within a few resets
	for gen := range uint64(5) {
		a := mem.Addr(gen)
		w.Put(a, gen*10, 4)
		if v, ok := w.Get(a); !ok || v != gen*10 {
			t.Fatalf("gen %d: store lost across the epoch wrap", gen)
		}
		w.Reset()
		if _, ok := w.Get(a); ok {
			t.Fatalf("gen %d: store kept after a Reset across the epoch wrap", gen)
		}
	}
}

// TestWriteSetPutAtLimit pins the capacity check Tx.Write relies on: at
// the limit a new line is refused and the set is left as it was, while a
// new word of a line already written is taken.
func TestWriteSetPutAtLimit(t *testing.T) {
	w := NewWriteSet(4)
	w.Put(0, 1, 2)
	w.Put(8, 2, 2)
	if _, ok := w.Get(16); w.Put(16, 3, 2) || ok || w.Lines() != 2 {
		t.Fatalf("a third line at a limit of 2 was taken or changed the set (%d lines)", w.Lines())
	}
	if !w.Put(9, 4, 2) {
		t.Fatal("Put refused a new word of a written line at the limit")
	}
}

// TestWriteSetForEachIsTheCurrentGeneration pins what commit relies on:
// ForEach yields exactly the lines written since the last Reset, once
// each, in first-write order, across resets and an epoch wrap, whatever
// stale tags the table still holds.
func TestWriteSetForEachIsTheCurrentGeneration(t *testing.T) {
	w := NewWriteSet(8)
	w.lines.epoch = ^uint32(0) - 2 // the wrap falls inside the loop below
	for gen := uint64(0); gen < 6; gen++ {
		want := []uint64{gen + 5, gen, gen + 2, gen + 9} // overlapping generations
		for _, l := range want {
			w.Put(mem.Addr(l*mem.WordsPerLine), gen, 8)
			w.Put(mem.Addr(want[0]*mem.WordsPerLine), gen, 8)
		}
		var got []uint64
		w.ForEach(func(a mem.Addr, _ uint64) { got = append(got, mem.LineOf(a)) })
		if !slices.Equal(got, want) {
			t.Fatalf("gen %d: ForEach yielded lines %v, want %v", gen, got, want)
		}
		w.Reset()
		w.ForEach(func(a mem.Addr, _ uint64) { t.Fatalf("gen %d: ForEach yielded %d after Reset", gen, a) })
		if _, ok := w.Get(mem.Addr(want[0] * mem.WordsPerLine)); ok {
			t.Fatalf("gen %d: a store is visible after Reset", gen)
		}
	}
	if w.lines.epoch >= 6 {
		t.Fatalf("epoch %d: the loop never wrapped it", w.lines.epoch)
	}
}

// TestWriteSetGrows: with no limit (core.ValueLog's use) the table doubles
// as it fills, and every store survives the rehashes.
func TestWriteSetGrows(t *testing.T) {
	w := NewWriteSet(4)
	const n = 10_001
	for l := range mem.Addr(n) {
		w.Put(l*mem.WordsPerLine+l%mem.WordsPerLine, uint64(l), math.MaxInt)
	}
	for l := range mem.Addr(n) {
		if v, ok := w.Get(l*mem.WordsPerLine + l%mem.WordsPerLine); !ok || v != uint64(l) || w.Lines() != n {
			t.Fatalf("line %d: Get = %d,%v with %d lines in %d slots", l, v, ok, w.Lines(), len(w.lines.slots))
		}
	}
}

func TestQuickWriteSetMatchesMap(t *testing.T) {
	w := NewWriteSet(8)
	words, lines := map[mem.Addr]uint64{}, map[uint64]bool{}
	f := func(addr, other uint16, val uint64, op uint8) bool {
		if op < 16 {
			w.Reset()
			clear(words)
			clear(lines)
			return w.Lines() == 0
		}
		a, b := mem.Addr(addr%500), mem.Addr(other%500)
		w.Put(a, val, math.MaxInt)
		words[a], lines[mem.LineOf(a)] = val, true
		v, ok := w.Get(b)
		want, wantOK := words[b]
		return v == want && ok == wantOK && w.Lines() == len(lines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveEveryYields(t *testing.T) {
	// Functional check: transactions still commit correctly with
	// interleaving enabled.
	m := mem.New(1 << 12)
	a := m.Alloc(1)
	tx := NewTx(m, Config{InterleaveEvery: 1})
	for i := 0; i < 50; i++ {
		if r := tx.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) }); r != None {
			t.Fatalf("abort with interleaving: %v", r)
		}
	}
	if m.Load(a) != 50 {
		t.Fatalf("counter = %d", m.Load(a))
	}
}

// worstProbe returns the most slots any lookup of a present key inspects in
// an epoch-tagged table, by the same walk add/contains/get/put make.
func worstProbe(table []uint64, mask uint64, epoch uint32, keys []uint64) int {
	worst := 0
	for _, k := range keys {
		want := uint64(epoch)<<32 | (k + 1)
		n := 1
		for i := mix(k) & mask; table[i] != want; i = (i + 1) & mask {
			n++
		}
		worst = max(worst, n)
	}
	return worst
}

// avlSeedLines returns n distinct node lines of an AVL set seeded with half
// of 8192 keys: the seed allocates ≈ 4096 one-line nodes back to back, and
// the lines a body touches are a scattered subset of that range.
func avlSeedLines(seed uint64, n int) []uint64 {
	const firstNode, nodes = 34, 4096 // behind the nil line, the set's head and a method's lock/orec lines
	r := rng.NewXoshiro256(seed)
	lines := make([]uint64, 0, n)
	for len(lines) < n {
		if l := firstNode + r.Uint64n(nodes); !slices.Contains(lines, l) {
			lines = append(lines, l)
		}
	}
	return lines
}

// The slot hash is one multiply, not an avalanche: what it must not do is
// pile allocator-shaped keys — consecutive lines, one word per line, page
// strides — into long probe runs. 512 keys is the read-set limit, so the
// lineSet below runs at its worst legal load (1/2). Regular strides must
// stay nearly collision-free; a scattered subset is bounded by what linear
// probing itself gives a random placement at that load. The write set's
// table is a quarter the size: 128 lines in 256 slots, where the longest
// walk of a random placement is 20 or less in 99 of 100 trials (16 for
// 512 keys in 1024 slots is near its 90th percentile). The worst walks today
// are 3 (strided), 13 (512 scattered lines) and 19 (128 scattered lines).
const (
	maxProbesStrided        = 4
	maxProbesScattered      = 16
	maxProbesScatteredWrite = 20
)

// stridedKeySets returns 512 keys from each of several bases at each of the
// strides an allocator produces: words, lines, eight lines, pages.
func stridedKeySets() map[string][]uint64 {
	sets := map[string][]uint64{}
	for _, base := range []uint64{0, 1, 8200, 1 << 20, 123457} {
		for _, stride := range []uint64{1, 8, 64, 4096} {
			keys := make([]uint64, 512)
			for i := range keys {
				keys[i] = base + uint64(i)*stride
			}
			sets[fmt.Sprintf("base %d stride %d", base, stride)] = keys
		}
	}
	return sets
}

// checkProbes fills a lineSet sized for capacity keys with that many keys of
// each strided set and of eight scattered AVL draws, and bounds the longest
// lookup walk.
func checkProbes(t *testing.T, capacity, scatteredBound int) {
	check := func(name string, lines []uint64, bound int) {
		s := newLineSet(capacity)
		for _, l := range lines[:capacity] {
			s.add(l)
		}
		if worst := worstProbe(s.slots, s.mask, s.epoch, lines[:capacity]); worst > bound {
			t.Errorf("%s: a lookup probed %d slots, bound %d", name, worst, bound)
		}
	}
	for name, lines := range stridedKeySets() {
		check(name, lines, maxProbesStrided)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		check(fmt.Sprintf("AVL seed lines, draw %d", seed), avlSeedLines(seed, capacity), scatteredBound)
	}
}

func TestLineSetProbesStayShort(t *testing.T) { checkProbes(t, DefaultReadLines, maxProbesScattered) }

// TestWriteSetProbesStayShort: a WriteSet's index is the lineSet NewWriteSet
// sizes for the write-line limit.
func TestWriteSetProbesStayShort(t *testing.T) {
	checkProbes(t, DefaultWriteLines, maxProbesScatteredWrite)
}
