//go:build unix

package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// paceFloor is the fewest bytes New maps between two collections it forces.
const paceFloor = 32 << 20

// paceWait bounds how long New waits, after a collection it forced, for a
// finalizer to unmap a dropped heap.
const paceWait = 10 * time.Millisecond

// pace applies GOGC's rule to the mapped heaps, which the collector does not
// count: once the bytes mapped since the last forced collection exceed
// max(paceFloor, bytes still mapped), New collects before it maps, so the
// finalizers of unreachable heaps run and unmap them. Without it a loop that
// creates and drops heaps never collects (the Go heap does not grow) and
// keeps every mapping.
var pace struct {
	mu     sync.Mutex
	mapped int // bytes mapped and not yet unmapped
	since  int // bytes mapped since the last forced collection
}

// unmapped holds a token once a finalizer has unmapped a heap.
var unmapped = make(chan struct{}, 1)

// mapHeap maps the words and meta arrays of a lines-line heap as one
// anonymous private mapping: address space at once, resident memory only
// where touched, and zero without the runtime clearing it. A finalizer on m
// unmaps it once m is unreachable.
func mapHeap(m *Memory, lines int) (words, meta []atomic.Uint64) {
	nw := lines * WordsPerLine
	size := (nw + lines) * 8

	pace.mu.Lock()
	collect := pace.since+size > max(paceFloor, pace.mapped)
	if collect {
		pace.since = 0
	}
	pace.mu.Unlock()
	if collect {
		select {
		case <-unmapped: // an unmap from before this collection
		default:
		}
		runtime.GC()
		// The collection only queues the finalizers of the heaps it found
		// dropped. Their goroutine runs them back to back, but on a busy
		// host it can wait milliseconds for a thread: mapping meanwhile
		// would add this heap to the dropped ones.
		wait := time.NewTimer(paceWait)
		select {
		case <-unmapped:
		case <-wait.C:
		}
		wait.Stop()
	}

	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping a heap of %d bytes: %v", size, err))
	}
	pace.mu.Lock()
	pace.mapped += size
	pace.since += size
	pace.mu.Unlock()
	runtime.SetFinalizer(m, func(*Memory) {
		_ = syscall.Munmap(b) // fails only for a slice Mmap did not return
		pace.mu.Lock()
		pace.mapped -= size
		pace.mu.Unlock()
		select {
		case unmapped <- struct{}{}:
		default:
		}
	})

	all := unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(unsafe.SliceData(b))), nw+lines)
	return all[:nw:nw], all[nw:]
}
