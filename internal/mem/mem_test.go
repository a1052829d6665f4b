package mem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewReservesNilLine(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	if a == Nil {
		t.Fatalf("first allocation returned the nil address")
	}
	if a < WordsPerLine {
		t.Fatalf("first allocation %d lies in the reserved nil line", a)
	}
}

func TestNewRoundsUpToLines(t *testing.T) {
	m := New(17)
	if m.Size()%WordsPerLine != 0 {
		t.Fatalf("size %d is not a whole number of lines", m.Size())
	}
	if m.Lines()*WordsPerLine != m.Size() {
		t.Fatalf("lines %d inconsistent with size %d", m.Lines(), m.Size())
	}
}

func TestNewMinimumCapacity(t *testing.T) {
	m := New(0)
	if m.Size() < 2*WordsPerLine {
		t.Fatalf("tiny heap size %d cannot hold the nil line plus data", m.Size())
	}
}

func TestAllocSequentialDistinct(t *testing.T) {
	m := New(1 << 12)
	a := m.Alloc(3)
	b := m.Alloc(3)
	if b < a+3 {
		t.Fatalf("allocations overlap: %d then %d", a, b)
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	New(1024).Alloc(0)
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(2 * WordsPerLine)
	defer func() {
		if recover() == nil {
			t.Fatal("allocating past capacity did not panic")
		}
	}()
	for {
		m.Alloc(WordsPerLine)
	}
}

func TestAllocAlignedIsLineAligned(t *testing.T) {
	m := New(1 << 12)
	m.Alloc(3) // misalign the cursor
	a := m.AllocAligned(5)
	if uint64(a)%WordsPerLine != 0 {
		t.Fatalf("aligned allocation %d not on a line boundary", a)
	}
}

func TestAllocLines(t *testing.T) {
	m := New(1 << 12)
	a := m.AllocLines(2)
	b := m.AllocLines(1)
	if uint64(a)%WordsPerLine != 0 || uint64(b)%WordsPerLine != 0 {
		t.Fatalf("line allocations misaligned: %d, %d", a, b)
	}
	if uint64(b-a) < 2*WordsPerLine {
		t.Fatalf("second line allocation %d overlaps the first %d (2 lines)", b, a)
	}
}

func TestLoadInitiallyZero(t *testing.T) {
	m := New(1024)
	a := m.Alloc(4)
	for i := 0; i < 4; i++ {
		if v := m.Load(a + Addr(i)); v != 0 {
			t.Fatalf("fresh word %d holds %d, want 0", i, v)
		}
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	m := New(1024)
	a := m.Alloc(2)
	m.Store(a, 42)
	m.Store(a+1, 99)
	if got := m.Load(a); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	if got := m.Load(a + 1); got != 99 {
		t.Fatalf("Load = %d, want 99", got)
	}
}

func TestStoreBumpsLineVersion(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	line := LineOf(a)
	before := VersionOf(m.MetaLoad(line))
	m.Store(a, 7)
	after := VersionOf(m.MetaLoad(line))
	if after <= before {
		t.Fatalf("version did not advance: %d -> %d", before, after)
	}
	if Locked(m.MetaLoad(line)) {
		t.Fatal("line left locked after Store")
	}
}

// TestSnap: Snap returns the word with the meta word it was read under,
// and refuses a line that is locked.
func TestSnap(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	m.Store(a, 7)
	line := LineOf(a)
	v, meta, ok := m.Snap(a)
	if v != 7 || meta != m.MetaLoad(line) || !ok {
		t.Fatalf("Snap = %d, %#x, %v; want 7, %#x, true", v, meta, ok, m.MetaLoad(line))
	}
	if !m.TryLockLine(line, meta) {
		t.Fatal("TryLockLine failed on an idle line")
	}
	if _, _, ok := m.Snap(a); ok {
		t.Fatal("Snap of a locked line reported ok")
	}
	m.UnlockLine(line, VersionOf(meta))
}

func TestStoreAdvancesGlobalClock(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	before := m.ClockLoad()
	m.Store(a, 1)
	if m.ClockLoad() <= before {
		t.Fatal("global clock did not advance on Store")
	}
}

func TestCASSuccessAndFailure(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	if !m.CAS(a, 0, 5) {
		t.Fatal("CAS from correct old value failed")
	}
	if m.CAS(a, 0, 9) {
		t.Fatal("CAS from stale old value succeeded")
	}
	if got := m.Load(a); got != 5 {
		t.Fatalf("value after CAS = %d, want 5", got)
	}
}

func TestFailedCASDoesNotBumpVersion(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	m.Store(a, 1)
	line := LineOf(a)
	before := m.MetaLoad(line)
	if m.CAS(a, 99, 100) {
		t.Fatal("CAS should have failed")
	}
	if after := m.MetaLoad(line); after != before {
		t.Fatalf("failed CAS changed meta: %d -> %d", before, after)
	}
}

func TestFetchAdd(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	if got := m.FetchAdd(a, 3); got != 3 {
		t.Fatalf("FetchAdd = %d, want 3", got)
	}
	if got := m.FetchAdd(a, 4); got != 7 {
		t.Fatalf("FetchAdd = %d, want 7", got)
	}
	// Decrement via two's complement.
	if got := m.FetchAdd(a, ^uint64(0)); got != 6 {
		t.Fatalf("FetchAdd(-1) = %d, want 6", got)
	}
}

func TestLineOfGroupsWords(t *testing.T) {
	if LineOf(0) != LineOf(WordsPerLine-1) {
		t.Fatal("words 0 and 7 should share a line")
	}
	if LineOf(WordsPerLine-1) == LineOf(WordsPerLine) {
		t.Fatal("words 7 and 8 should not share a line")
	}
}

func TestLockedVersionEncoding(t *testing.T) {
	if Locked(0) {
		t.Fatal("zero meta should be unlocked")
	}
	if !Locked(1) {
		t.Fatal("meta with bit 0 set should be locked")
	}
	if VersionOf(7<<1) != 7 {
		t.Fatalf("VersionOf(7<<1) = %d, want 7", VersionOf(7<<1))
	}
}

func TestTryLockUnlockLine(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	line := LineOf(a)
	mw := m.MetaLoad(line)
	if !m.TryLockLine(line, mw) {
		t.Fatal("TryLockLine on a quiescent line failed")
	}
	if !Locked(m.MetaLoad(line)) {
		t.Fatal("line not locked after TryLockLine")
	}
	if m.TryLockLine(line, m.MetaLoad(line)) {
		t.Fatal("TryLockLine on a locked line succeeded")
	}
	m.UnlockLine(line, 123)
	if got := m.MetaLoad(line); Locked(got) || VersionOf(got) != 123 {
		t.Fatalf("after unlock meta = %d, want version 123 unlocked", got)
	}
}

func TestConcurrentFetchAdd(t *testing.T) {
	m := New(1024)
	a := m.Alloc(1)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.FetchAdd(a, 1)
			}
		}()
	}
	wg.Wait()
	if got := m.Load(a); got != goroutines*perG {
		t.Fatalf("concurrent FetchAdd lost updates: %d, want %d", got, goroutines*perG)
	}
}

func TestConcurrentCASMutualExclusion(t *testing.T) {
	m := New(1024)
	lock := m.Alloc(1)
	counter := 0
	const goroutines = 6
	const perG = 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for !m.CAS(lock, 0, 1) {
				}
				counter++
				m.Store(lock, 0)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*perG {
		t.Fatalf("CAS-built lock failed mutual exclusion: counter %d, want %d", counter, goroutines*perG)
	}
}

func TestConcurrentAllocDisjoint(t *testing.T) {
	m := New(1 << 16)
	const goroutines = 8
	const perG = 100
	results := make([][]Addr, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				results[id] = append(results[id], m.AllocAligned(WordsPerLine))
			}
		}(g)
	}
	wg.Wait()
	seen := map[Addr]bool{}
	for _, rs := range results {
		for _, a := range rs {
			if seen[a] {
				t.Fatalf("address %d allocated twice", a)
			}
			seen[a] = true
		}
	}
}

func TestQuickStoreLoadAnyValue(t *testing.T) {
	m := New(1 << 12)
	a := m.Alloc(1)
	f := func(v uint64) bool {
		m.Store(a, v)
		return m.Load(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVersionMonotonic(t *testing.T) {
	m := New(1 << 12)
	a := m.Alloc(1)
	line := LineOf(a)
	prev := VersionOf(m.MetaLoad(line))
	f := func(v uint64) bool {
		m.Store(a, v)
		cur := VersionOf(m.MetaLoad(line))
		ok := cur > prev
		prev = cur
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestClockDoesNotShareALineWithHeaders pins Memory's layout: the slice
// headers every access loads, the clock every plain store and writing
// commit bumps, and the cursor every Alloc bumps sit in pairwise different
// 64-byte blocks, so a writer of one never invalidates the host cache line
// a reader of another holds.
func TestClockDoesNotShareALineWithHeaders(t *testing.T) {
	const line = 64 // host cache line, spelled out so the test does not lean on the layout's own constant
	var m Memory
	blocks := map[string]uintptr{
		"words": unsafe.Offsetof(m.words) / line,
		"meta":  (unsafe.Offsetof(m.meta) + unsafe.Sizeof(m.meta) - 1) / line,
		"clock": unsafe.Offsetof(m.clock) / line,
		"next":  unsafe.Offsetof(m.next) / line,
	}
	if blocks["words"] != blocks["meta"] {
		t.Errorf("the two slice headers span blocks %d..%d; every access would load two lines", blocks["words"], blocks["meta"])
	}
	for _, pair := range [][2]string{{"clock", "words"}, {"clock", "meta"}, {"next", "words"}, {"next", "meta"}, {"clock", "next"}} {
		if blocks[pair[0]] == blocks[pair[1]] {
			t.Errorf("%s and %s share 64-byte block %d of Memory", pair[0], pair[1], blocks[pair[0]])
		}
	}
	// Blocks are relative to the struct's start, which the allocator need
	// not align to a line: a whole line of distance holds at any alignment.
	if d := unsafe.Offsetof(m.clock) - (unsafe.Offsetof(m.meta) + unsafe.Sizeof(m.meta)); d < line {
		t.Errorf("clock starts %d bytes after the headers end, want >= %d", d, line)
	}
	if d := unsafe.Offsetof(m.next) - (unsafe.Offsetof(m.clock) + unsafe.Sizeof(m.clock)); d < line {
		t.Errorf("next starts %d bytes after the clock ends, want >= %d", d, line)
	}
}

// TestAccessorsKeepMemoryAlive pins the rule that lets the heap live
// outside the Go heap: the collector does not see a pointer into the
// mapping, so once a method has loaded m.words or m.meta, m itself may be
// dead and its finalizer may unmap the heap before the access lands. Every
// Memory method that indexes words or meta must call runtime.KeepAlive(m)
// after its last such access.
func TestAccessorsKeepMemoryAlive(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "mem.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil {
			continue
		}
		recv := fn.Recv.List[0].Names[0].Name
		var lastAccess, lastKeep token.Pos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IndexExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && isIdent(sel.X, recv) &&
					(sel.Sel.Name == "words" || sel.Sel.Name == "meta") {
					lastAccess = max(lastAccess, n.Pos())
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, "runtime") &&
					sel.Sel.Name == "KeepAlive" && len(n.Args) == 1 && isIdent(n.Args[0], recv) {
					lastKeep = max(lastKeep, n.Pos())
				}
			}
			return true
		})
		if lastAccess == token.NoPos {
			continue
		}
		checked++
		if lastKeep < lastAccess {
			t.Errorf("%s: Memory.%s indexes the heap with no runtime.KeepAlive(%s) after its last access",
				fset.Position(lastAccess), fn.Name.Name, recv)
		}
	}
	if checked < 10 {
		t.Errorf("found %d methods that index the heap: the check no longer sees mem.go's accessors", checked)
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
