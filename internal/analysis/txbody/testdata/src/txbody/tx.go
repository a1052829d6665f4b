// Package txbody is the golden input for the txbody analyzer: each want
// comment seeds a true positive; the //rtle:ignore site proves suppression.
package txbody

import (
	"sync/atomic"
	"time"

	"rtle/internal/core"
	"rtle/internal/guard"
	"rtle/internal/htm"
	"rtle/internal/mem"
)

var counter int64

type node struct{ next *node }

func txBodyViolations(m *mem.Memory, tx *htm.Tx, ch chan int, a mem.Addr) {
	reason := tx.Run(func(tx *htm.Tx) {
		v := tx.Read(a) // instrumented barrier: ok
		tx.Write(a, v+1)
		m.Load(a)                    // want `raw heap access Memory\.Load inside transaction body`
		m.Store(a, 1)                // want `raw heap access Memory\.Store inside transaction body`
		ch <- 1                      // want `channel send inside transaction body`
		<-ch                         // want `channel receive inside transaction body`
		_ = make([]uint64, 8)        // want `allocation via make inside transaction body`
		atomic.AddInt64(&counter, 1) // want `sync/atomic\.AddInt64 inside transaction body`
		go func() {}()               // want `goroutine launch inside transaction body`
	})
	_ = reason
}

// specAlloc is instrumented speculative code outside a literal Run call, so
// only the //rtle:speculative mark brings it in scope.
//
//rtle:speculative
func specAlloc(tx *htm.Tx) *node {
	return &node{} // want `heap allocation \(&composite literal\) inside speculative function specAlloc`
}

//rtle:speculative
func specOK(tx *htm.Tx, a mem.Addr) uint64 {
	return tx.Read(a) // barrier access: ok
}

// logged shows the sanctioned escape hatch: the append touches Go-level
// checker state, not the simulated heap, and is explicitly waived.
func logged(tx *htm.Tx, a mem.Addr, log *[]uint64) {
	reason := tx.Run(func(tx *htm.Tx) {
		v := tx.Read(a)
		//rtle:ignore txbody observation log lives outside the simulated heap
		*log = append(*log, v)
	})
	_ = reason
}

// A guard's Do/RDo closure runs as a hardware transaction too: the same
// rules apply, and a raw heap read there is the paper's unsafe
// uninstrumented access.
func guardBodies(g *guard.RWMutex, mu *guard.Mutex, m *mem.Memory, a mem.Addr, ch chan int) {
	g.Do(func(c core.Context) {
		time.Sleep(time.Nanosecond) // want `call to time\.Sleep inside guard Do body`
		c.Write(a, 1)
	})
	g.RDo(func(c core.Context) {
		ch <- int(c.Read(a)) // want `channel send inside guard RDo body`
	})
	mu.Do(func(c core.Context) {
		if m.Load(a) < 7 { // want `raw heap access Memory\.Load inside guard Do body`
			c.Write(a, 7)
		}
	})
	g.Do(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	g.RDo(func(c core.Context) { _ = c.Read(a) })
}
