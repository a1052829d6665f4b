package mem

import "testing"

// Micro-benchmarks for the simulation substrate's per-access costs. These
// anchor the cost model discussion in DESIGN.md: the ratio between a plain
// access and a transactional access (htm's benchmarks) is the simulated
// analogue of the paper's "uninstrumented vs instrumented" gap.

func BenchmarkLoad(b *testing.B) {
	m := New(1 << 12)
	a := m.Alloc(1)
	m.Store(a, 1)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Load(a)
	}
	_ = sink
}

func BenchmarkStore(b *testing.B) {
	m := New(1 << 12)
	a := m.Alloc(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(a, uint64(i))
	}
}

func BenchmarkCASSuccess(b *testing.B) {
	m := New(1 << 12)
	a := m.Alloc(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CAS(a, uint64(i), uint64(i+1))
	}
}

func BenchmarkFetchAdd(b *testing.B) {
	m := New(1 << 12)
	a := m.Alloc(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FetchAdd(a, 1)
	}
}

func BenchmarkAllocLines(b *testing.B) {
	m := New((b.N + 2) * WordsPerLine * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AllocLines(1)
	}
}

// BenchmarkNewDrop maps a heap of rtle.New's default size, touches one line
// and drops it: what a short-lived guard or test pays for its heap, with
// New's pacing collections amortized in.
func BenchmarkNewDrop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New(1 << 20)
		m.Store(m.Alloc(1), 1)
	}
}
