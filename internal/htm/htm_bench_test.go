package htm

import (
	"sync/atomic"
	"testing"

	"rtle/internal/mem"
)

// Per-access and per-transaction costs of the simulated HTM, the
// "hardware" side of DESIGN.md's cost model.

func BenchmarkTxReadOnly(b *testing.B) {
	m := mem.New(1 << 14)
	a := m.AllocLines(1)
	m.Store(a, 1)
	tx := NewTx(m, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) { tx.Read(a) })
	}
}

func BenchmarkTxReadWrite(b *testing.B) {
	m := mem.New(1 << 14)
	a := m.AllocLines(1)
	tx := NewTx(m, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) })
	}
}

func BenchmarkTxWide(b *testing.B) {
	// A transaction shaped like an AVL operation: ~16 line reads, 4
	// word writes.
	m := mem.New(1 << 16)
	base := m.AllocLines(16)
	tx := NewTx(m, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) {
			for l := 0; l < 16; l++ {
				tx.Read(base + mem.Addr(l*mem.WordsPerLine))
			}
			for l := 0; l < 4; l++ {
				tx.Write(base+mem.Addr(l*mem.WordsPerLine)+1, uint64(i))
			}
		})
	}
}

func BenchmarkTxAbortExplicit(b *testing.B) {
	// The cost of the panic-based abort path (rollback + unwind).
	m := mem.New(1 << 14)
	a := m.AllocLines(1)
	tx := NewTx(m, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) {
			tx.Write(a, 1)
			tx.Abort()
		})
	}
}

func BenchmarkLineSetAddReset(b *testing.B) {
	s := newLineSet(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := uint64(0); l < 16; l++ {
			s.add(uint64(i)*31 + l)
		}
		s.reset()
	}
}

func BenchmarkWriteSetPutReset(b *testing.B) {
	w := NewWriteSet(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			w.Put(mem.Addr(uint64(i)*17+uint64(j)), uint64(j), 8)
		}
		w.Reset()
	}
}

// BenchmarkStoreBesideReaders is the cost the lone BenchmarkStore (and the
// canonical benchmark's mem.store_ns probe) cannot see: one goroutine loops
// mem.Store on a line of its own while b.N read-only 16-line transactions
// run on another. The two touch no simulated line in common, and the spacer
// keeps their meta words (eight to a host cache line) apart too, so whatever
// either pays over its solo cost is the simulator's own shared state —
// DESIGN.md §1.8. ns/op is per transaction; ns/store is the storer's.
func BenchmarkStoreBesideReaders(b *testing.B) {
	m := mem.New(1 << 16)
	base := m.AllocLines(16)
	m.AllocLines(16)
	own := m.AllocLines(1)
	var stop atomic.Bool
	var stores int
	begin, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		<-begin
		for !stop.Load() {
			m.Store(own, uint64(stores))
			stores++
		}
	}()
	tx := NewTx(m, Config{})
	b.ResetTimer()
	close(begin)
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) {
			for l := 0; l < 16; l++ {
				tx.Read(base + mem.Addr(l*mem.WordsPerLine))
			}
		})
	}
	b.StopTimer()
	stop.Store(true)
	<-done
	if stores > 0 { // none on one P, where the storer never gets to run
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stores), "ns/store")
	}
}
