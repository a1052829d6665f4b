package htm

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"rtle/internal/mem"
	"rtle/internal/rng"
)

func TestLineSetAddContains(t *testing.T) {
	s := newLineSet(16)
	if s.contains(5) {
		t.Fatal("empty set contains 5")
	}
	if !s.add(5) {
		t.Fatal("first add reported duplicate")
	}
	if s.add(5) {
		t.Fatal("second add reported new")
	}
	if !s.contains(5) || s.len() != 1 {
		t.Fatalf("membership wrong: contains=%v len=%d", s.contains(5), s.len())
	}
}

func TestLineSetZeroLine(t *testing.T) {
	s := newLineSet(16)
	if !s.add(0) {
		t.Fatal("adding line 0 failed")
	}
	if !s.contains(0) {
		t.Fatal("line 0 not found")
	}
}

func TestLineSetResetIsEmpty(t *testing.T) {
	s := newLineSet(16)
	for i := uint64(0); i < 10; i++ {
		s.add(i)
	}
	s.reset()
	if s.len() != 0 {
		t.Fatalf("len after reset = %d", s.len())
	}
	for i := uint64(0); i < 10; i++ {
		if s.contains(i) {
			t.Fatalf("stale member %d visible after reset", i)
		}
	}
}

func TestLineSetManyGenerations(t *testing.T) {
	s := newLineSet(8)
	for gen := 0; gen < 1000; gen++ {
		base := uint64(gen * 100)
		for i := uint64(0); i < 8; i++ {
			if !s.add(base + i) {
				t.Fatalf("gen %d: add %d reported duplicate", gen, base+i)
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
	for gen := 0; gen < 5; gen++ {
		s.add(uint64(gen))
		if !s.contains(uint64(gen)) {
			t.Fatalf("gen %d lost its member across epoch wrap", gen)
		}
		s.reset()
		if s.contains(uint64(gen)) {
			t.Fatalf("gen %d member survived reset across epoch wrap", gen)
		}
	}
}

func TestLineSetForEach(t *testing.T) {
	s := newLineSet(16)
	want := map[uint64]bool{3: true, 7: true, 11: true}
	for l := range want {
		s.add(l)
	}
	got := map[uint64]bool{}
	s.forEach(func(l uint64) bool { got[l] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("forEach visited %d, want %d", len(got), len(want))
	}
	for l := range want {
		if !got[l] {
			t.Fatalf("forEach missed %d", l)
		}
	}
}

// TestLineSetForEachIsTheCurrentGeneration pins what commit relies on:
// forEach yields exactly the lines added since the last reset, once each,
// in insertion order — across resets and an epoch wrap, whatever stale
// tags the table still holds.
func TestLineSetForEachIsTheCurrentGeneration(t *testing.T) {
	s := newLineSet(8)
	s.epoch = ^uint32(0) - 2 // the wrap falls inside the loop below
	for gen := uint64(0); gen < 6; gen++ {
		// Overlapping, differently ordered generations, with duplicates.
		want := []uint64{gen + 5, gen, gen + 2, gen + 9}
		for _, l := range want {
			s.add(l)
			s.add(want[0])
		}
		var got []uint64
		s.forEach(func(l uint64) bool { got = append(got, l); return true })
		if len(got) > s.len() {
			t.Fatalf("gen %d: %d callbacks for a set of %d", gen, len(got), s.len())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("gen %d: forEach yielded %v, want %v", gen, got, want)
		}
		s.reset()
		s.forEach(func(l uint64) bool {
			t.Fatalf("gen %d: forEach yielded %d after reset", gen, l)
			return false
		})
	}
	if s.epoch >= 6 {
		t.Fatalf("epoch %d: the loop never wrapped it", s.epoch)
	}
}

func TestLineSetForEachEarlyStop(t *testing.T) {
	s := newLineSet(16)
	for i := uint64(0); i < 10; i++ {
		s.add(i)
	}
	n := 0
	s.forEach(func(uint64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("forEach continued after false: %d visits", n)
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
		return added == wantAdded && s.contains(l) && s.len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMapPutGet(t *testing.T) {
	w := newWriteMap(16)
	if _, ok := w.get(9); ok {
		t.Fatal("empty map returned a value")
	}
	w.put(9, 100)
	if v, ok := w.get(9); !ok || v != 100 {
		t.Fatalf("get = %d,%v", v, ok)
	}
	w.put(9, 200) // overwrite keeps one order entry
	if v, _ := w.get(9); v != 200 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if w.len() != 1 {
		t.Fatalf("len = %d, want 1", w.len())
	}
}

func TestWriteMapOrderPreserved(t *testing.T) {
	w := newWriteMap(16)
	addrs := []mem.Addr{5, 3, 9, 1}
	for i, a := range addrs {
		w.put(a, uint64(i))
	}
	w.put(3, 99) // overwrite must not change order
	wantVals := []uint64{0, 99, 2, 3}
	var got []mem.Addr
	var gotVals []uint64
	w.forEachOrdered(func(a mem.Addr, v uint64) { got = append(got, a); gotVals = append(gotVals, v) })
	if !slices.Equal(got, addrs) || !slices.Equal(gotVals, wantVals) {
		t.Fatalf("forEachOrdered yielded %v = %v, want %v = %v", got, gotVals, addrs, wantVals)
	}
}

func TestWriteMapReset(t *testing.T) {
	w := newWriteMap(8)
	w.put(1, 10)
	w.reset()
	if w.len() != 0 {
		t.Fatalf("len after reset = %d", w.len())
	}
	if _, ok := w.get(1); ok {
		t.Fatal("stale entry visible after reset")
	}
}

func TestWriteMapEpochWrap(t *testing.T) {
	w := newWriteMap(4)
	w.epoch = ^uint32(0) - 1
	for gen := uint64(0); gen < 5; gen++ {
		w.put(mem.Addr(gen), gen*10)
		if v, ok := w.get(mem.Addr(gen)); !ok || v != gen*10 {
			t.Fatalf("gen %d lost entry across wrap", gen)
		}
		w.reset()
	}
}

func TestQuickWriteMapMatchesMap(t *testing.T) {
	w := newWriteMap(256)
	model := map[mem.Addr]uint64{}
	f := func(addr uint16, val uint64, resetNow bool) bool {
		if resetNow {
			w.reset()
			model = map[mem.Addr]uint64{}
			return w.len() == 0
		}
		a := mem.Addr(addr % 500)
		w.put(a, val)
		model[a] = val
		v, ok := w.get(a)
		return ok && v == val && w.len() == len(model)
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
// probing itself gives a random placement at that load. The worst walks
// today are 3 (strided), 13 (scattered lines) and 7 (scattered words).
const (
	maxProbesStrided   = 4
	maxProbesScattered = 16
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

func TestLineSetProbesStayShort(t *testing.T) {
	check := func(name string, lines []uint64, bound int) {
		s := newLineSet(DefaultReadLines)
		for _, l := range lines {
			s.add(l)
		}
		if worst := worstProbe(s.slots, s.mask, s.epoch, lines); worst > bound {
			t.Errorf("%s: a lookup probed %d slots, bound %d", name, worst, bound)
		}
	}
	for name, lines := range stridedKeySets() {
		check(name, lines, maxProbesStrided)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		check(fmt.Sprintf("AVL seed lines, draw %d", seed), avlSeedLines(seed, 512), maxProbesScattered)
	}
}

func TestWriteMapProbesStayShort(t *testing.T) {
	check := func(name string, words []uint64, bound int) {
		w := newWriteMap(DefaultWriteLines * mem.WordsPerLine)
		for _, a := range words {
			w.put(mem.Addr(a), a)
		}
		if worst := worstProbe(w.keys, w.mask, w.epoch, words); worst > bound {
			t.Errorf("%s: a lookup probed %d slots, bound %d", name, worst, bound)
		}
	}
	for name, words := range stridedKeySets() {
		check(name, words, maxProbesStrided)
	}
	// The four fields of each of 128 AVL nodes: the write-line limit.
	for seed := uint64(1); seed <= 8; seed++ {
		var words []uint64
		for _, l := range avlSeedLines(seed, DefaultWriteLines) {
			for f := uint64(0); f < 4; f++ {
				words = append(words, l*mem.WordsPerLine+f)
			}
		}
		check(fmt.Sprintf("AVL node fields, draw %d", seed), words, maxProbesScattered)
	}
}
