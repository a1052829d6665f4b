package cctsa

import (
	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/spinlock"
	"rtle/internal/tmap"
	"rtle/internal/wanghash"
)

// K-mer table value layout: low 32 bits hold the occurrence count, bit 63
// the visited flag used by the unitig-extension phase.
const (
	countMask  = (uint64(1) << 32) - 1
	visitedBit = uint64(1) << 63
)

// kmerStore abstracts the two §6.4.1 variants behind the operations the
// assembler needs. Implementations must support: concurrent add during the
// build phase; quiescent count reads and atomic visited-marking during the
// processing phase; and chunked iteration for claiming processing work.
type kmerStore interface {
	// add counts one occurrence of kmer (thread tid).
	add(tid int, kmer uint64)
	// count returns kmer's occurrence count. Quiescent phase only.
	count(kmer uint64) uint64
	// tryVisit atomically claims kmer for unitig extension: it returns
	// true iff the count is at least minCount and the visited flag was
	// clear, setting the flag.
	tryVisit(tid int, kmer uint64, minCount uint64) bool
	// chunks returns the number of work chunks for the processing phase.
	chunks() int
	// forEachInChunk visits every (kmer, value) pair in one chunk,
	// quiescently.
	forEachInChunk(chunk int, fn func(kmer, val uint64))
	// distinct returns the number of distinct k-mers. Quiescent only.
	distinct() int
}

// --- Transactified variant ---------------------------------------------------

// txStore is the transactified variant: one shared tmap synchronized by a
// core.Method. Each worker thread gets a (thread, handle) pair.
type txStore struct {
	m       *mem.Memory
	mp      *tmap.Map
	threads []core.Thread
	handles []*tmap.Handle
	nchunks int
}

func newTxStore(m *mem.Memory, method core.Method, buckets, threads int) *txStore {
	s := &txStore{
		m:       m,
		mp:      tmap.New(m, buckets),
		nchunks: threads * 8,
	}
	for i := 0; i < threads; i++ {
		s.threads = append(s.threads, method.NewThread())
		s.handles = append(s.handles, s.mp.NewHandle())
	}
	return s
}

func (s *txStore) add(tid int, kmer uint64) {
	s.handles[tid].Add(s.threads[tid], kmer, 1)
}

func (s *txStore) count(kmer uint64) uint64 {
	v, _ := s.handles[0].GetCS(core.Direct(s.m), kmer)
	return v & countMask
}

func (s *txStore) tryVisit(tid int, kmer uint64, minCount uint64) bool {
	h := s.handles[tid]
	var ok bool
	s.threads[tid].Atomic(func(c core.Context) {
		ok = false
		v, found := h.GetCS(c, kmer)
		if !found || v&countMask < minCount || v&visitedBit != 0 {
			return
		}
		h.PutCS(c, kmer, v|visitedBit)
		ok = true
	})
	return ok
}

func (s *txStore) chunks() int { return s.nchunks }

func (s *txStore) forEachInChunk(chunk int, fn func(kmer, val uint64)) {
	c := core.Direct(s.m)
	nb := s.mp.Buckets()
	lo := chunk * nb / s.nchunks
	hi := (chunk + 1) * nb / s.nchunks
	s.mp.ForEachBucketRange(c, lo, hi, fn)
}

func (s *txStore) distinct() int { return s.mp.Len(core.Direct(s.m)) }

// mergedStats returns the merged synchronization statistics of the store's
// threads.
func (s *txStore) mergedStats() core.Stats {
	var st core.Stats
	for _, t := range s.threads {
		st.Merge(t.Stats())
	}
	return st
}

// --- Original-style variant --------------------------------------------------

// stripedStore is the original ccTSA structure: the key space is hashed
// across many sub-tables ("the main hash-map is split into thousands of
// hash-maps, each protected by its own lock"), which also serve as the
// processing phase's work chunks.
type stripedStore struct {
	m       *mem.Memory
	locks   []*spinlock.Lock
	maps    []*tmap.Map
	handles [][]*tmap.Handle // [tid][stripe]
}

func newStripedStore(m *mem.Memory, stripes, bucketsPerStripe, threads int) *stripedStore {
	s := &stripedStore{m: m}
	for i := 0; i < stripes; i++ {
		s.locks = append(s.locks, spinlock.New(m))
		s.maps = append(s.maps, tmap.New(m, bucketsPerStripe))
	}
	s.handles = make([][]*tmap.Handle, threads)
	for t := 0; t < threads; t++ {
		s.handles[t] = make([]*tmap.Handle, stripes)
		for i := 0; i < stripes; i++ {
			s.handles[t][i] = s.maps[i].NewHandle()
		}
	}
	return s
}

func (s *stripedStore) stripeOf(kmer uint64) int {
	// A different mix than tmap's bucket hash, so stripes and buckets
	// stay independent.
	return int(wanghash.Hash(kmer^0xdeadbeefcafef00d, uint64(len(s.maps))))
}

func (s *stripedStore) add(tid int, kmer uint64) {
	st := s.stripeOf(kmer)
	h := s.handles[tid][st]
	l := s.locks[st]
	l.Acquire()
	h.AddCS(core.Direct(s.m), kmer, 1)
	h.Committed()
	l.Release()
}

func (s *stripedStore) count(kmer uint64) uint64 {
	st := s.stripeOf(kmer)
	v, _ := s.handles[0][st].GetCS(core.Direct(s.m), kmer)
	return v & countMask
}

func (s *stripedStore) tryVisit(tid int, kmer uint64, minCount uint64) bool {
	st := s.stripeOf(kmer)
	h := s.handles[tid][st]
	l := s.locks[st]
	l.Acquire()
	defer l.Release()
	c := core.Direct(s.m)
	v, found := h.GetCS(c, kmer)
	if !found || v&countMask < minCount || v&visitedBit != 0 {
		return false
	}
	h.PutCS(c, kmer, v|visitedBit)
	return true
}

func (s *stripedStore) chunks() int { return len(s.maps) }

func (s *stripedStore) forEachInChunk(chunk int, fn func(kmer, val uint64)) {
	s.maps[chunk].ForEach(core.Direct(s.m), func(k, v uint64) bool { fn(k, v); return true })
}

func (s *stripedStore) distinct() int {
	c := core.Direct(s.m)
	n := 0
	for _, mp := range s.maps {
		n += mp.Len(c)
	}
	return n
}
