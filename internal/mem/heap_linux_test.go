package mem

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// These tests read the process's resident set from /proc/self/status, so
// they build on Linux only.

// procStatus reads fields of /proc/self/status into a buffer it keeps, so a
// reading allocates nothing and cannot itself start a collection.
type procStatus struct {
	f   *os.File
	buf [8192]byte
}

func openStatus(t *testing.T) *procStatus {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return &procStatus{f: f}
}

// kB returns the field (e.g. "VmRSS:") in kilobytes.
func (s *procStatus) kB(t *testing.T, field string) int {
	n, err := s.f.ReadAt(s.buf[:], 0)
	if n == 0 {
		t.Fatalf("reading /proc/self/status: %v", err)
	}
	b := s.buf[:n]
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		t.Fatalf("/proc/self/status has no %s", field)
	}
	b = bytes.TrimLeft(b[i+len(field):], " \t")
	v := 0
	for ; len(b) > 0 && b[0] >= '0' && b[0] <= '9'; b = b[1:] {
		v = v*10 + int(b[0]-'0')
	}
	return v
}

// skipOnHugePages skips a test that counts pages where the kernel backs
// anonymous memory with 2 MB pages by default: there one store makes a
// whole huge page resident.
func skipOnHugePages(t *testing.T) {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err == nil && strings.Contains(string(b), "[always]") {
		t.Skip("transparent huge pages are always on: residency is per 2 MB page")
	}
}

// heapBytes is what a heap of words words maps: the words and a meta word
// per line.
func heapBytes(words int) int { return (words + words/WordsPerLine) * 8 }

// waitUnmapped collects and waits for finalizers until no heap is mapped:
// the tests' readings of VmRSS must not meet a finalizer unmapping a heap
// an earlier test dropped.
func waitUnmapped(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		pace.mu.Lock()
		mapped := pace.mapped
		pace.mu.Unlock()
		if mapped == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes of heap still mapped 5 s after their Memory was dropped", mapped)
		}
		time.Sleep(time.Millisecond)
	}
}

// A heap is resident only where touched, including a heap made right after
// another was dropped: nothing clears it first, as the runtime clears a
// reused span of the Go heap.
func TestNewHeapIsNotResidentUntilTouched(t *testing.T) {
	st := openStatus(t)
	m := New(1 << 20)
	m.Store(m.Alloc(1), 1)
	m = nil
	waitUnmapped(t)

	before := st.kB(t, "VmRSS:")
	m = New(1 << 20)
	after := st.kB(t, "VmRSS:")
	if grew := after - before; grew > 1<<10 {
		t.Errorf("a new heap of %d MB raised VmRSS by %d kB before any access: want under 1 MB", heapBytes(1<<20)>>20, grew)
	}
	if v := m.Load(WordsPerLine); v != 0 {
		t.Errorf("a new heap reads %d: want zero", v)
	}
	runtime.KeepAlive(m)
}

// Touching k pages of words makes about k pages resident: the k pages and
// the meta words of their lines, one meta page for every WordsPerLine word
// pages.
func TestTouchedPagesBecomeResident(t *testing.T) {
	skipOnHugePages(t)
	st := openStatus(t)
	const k = 1024
	page := os.Getpagesize()
	perPage := page / 8
	waitUnmapped(t) // no finalizer may unmap a heap of an earlier test meanwhile
	m := New((k + 1) * perPage)

	before := st.kB(t, "VmRSS:")
	for p := 1; p <= k; p++ {
		m.Store(Addr(p*perPage), uint64(p))
	}
	grew := (st.kB(t, "VmRSS:") - before) * 1024 / page

	want := k + k/WordsPerLine
	if grew < want*9/10 || grew > want+256 {
		t.Errorf("storing to %d pages raised VmRSS by %d pages: want about %d (%d of words, %d of meta)",
			k, grew, want, k, k/WordsPerLine)
	}
	runtime.KeepAlive(m)
}

// A loop that creates, touches and drops heaps allocates nothing on the Go
// heap, so only New's own pacing collects them: without it every heap
// would stay mapped. Its peak stays under the pacing floor plus one heap.
func TestDroppedHeapsAreUnmapped(t *testing.T) {
	st := openStatus(t)
	const words, heaps = 1 << 20, 200
	limitKB := (paceFloor + heapBytes(words)) >> 10
	waitUnmapped(t)
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		t.Skipf("cannot reset VmHWM: %v", err)
	}
	base := st.kB(t, "VmRSS:")

	perPage := os.Getpagesize() / 8
	for i := 0; i < heaps; i++ {
		m := New(words)
		for a := WordsPerLine; a < words; a += perPage {
			m.Store(Addr(a), 1)
		}
		if grew := st.kB(t, "VmRSS:") - base; grew > limitKB {
			t.Fatalf("heap %d of %d: VmRSS %d kB above the start, over the floor plus one heap (%d kB)",
				i+1, heaps, grew, limitKB)
		}
	}
	if grew := st.kB(t, "VmHWM:") - base; grew > limitKB {
		t.Errorf("VmHWM rose %d kB over %d heaps: want under the floor plus one heap (%d kB)", grew, heaps, limitKB)
	} else {
		t.Logf("VmHWM rose %d kB over %d heaps of %.1f MB (limit %d kB)", grew, heaps, float64(heapBytes(words))/(1<<20), limitKB)
	}
}
