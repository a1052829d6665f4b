//go:build !unix

package mem

import "sync/atomic"

// mapHeap allocates the words and meta arrays of a lines-line heap on the Go
// heap where there is no mmap to put them beside it.
func mapHeap(_ *Memory, lines int) (words, meta []atomic.Uint64) {
	return make([]atomic.Uint64, lines*WordsPerLine), make([]atomic.Uint64, lines)
}
