package core

import (
	"math"

	"rtle/internal/htm"
	"rtle/internal/mem"
)

// ValueLog is what a buffered software section keeps while it runs: every
// location it read with the value it saw, and its writes, held back in an
// htm.WriteSet until the section is known to be consistent. The three
// software sections of this repository — NOrec's transaction, RHNOrec's
// software path (which is NOrec's) and ALE's lock holder — differ in when
// they validate and how they publish, not in this bookkeeping, so it is
// written once. Validation is by value (NOrec's mechanism): the log holds
// while every logged location still has the value that was read.
//
// Validation and publication each come in a plain form, for a section that
// excludes every other writer (NOrec's odd sequence lock, a fallback lock,
// ALE's blocked flag), and a transactional form, for one that publishes with
// a small hardware transaction; they are separate methods rather than one
// taking an accessor because NOrec's validation loop is Fig. 10's hot path.
//
// Publication goes line by line, in first-write order, not in program
// order, and no reader can tell: every publisher excludes every other
// section that could observe the order — NOrec's odd sequence number,
// RHNOrec's fallback lock, ALE's blocked flag, or the hardware commit that
// PublishTx's writes take effect in — and a section writes each location
// at most once, with its last value.
//
// It is exported for the same reason Recorder is: the STM and hybrid methods
// live outside this package. A ValueLog belongs to one thread.
type ValueLog struct {
	readAddrs []mem.Addr
	readVals  []uint64
	writes    htm.WriteSet
}

// NewValueLog returns an empty log. Its write set starts with room for 16
// lines and grows as a section needs.
func NewValueLog() ValueLog {
	return ValueLog{writes: htm.NewWriteSet(16)}
}

// Reset empties the log for the next attempt, keeping its storage.
func (l *ValueLog) Reset() {
	l.readAddrs = l.readAddrs[:0]
	l.readVals = l.readVals[:0]
	l.writes.Reset()
}

// Written returns the value this section buffered for a, if it wrote a: a
// section reads its own writes.
func (l *ValueLog) Written(a mem.Addr) (uint64, bool) { return l.writes.Get(a) }

// LogRead records that the section read v at a.
func (l *ValueLog) LogRead(a mem.Addr, v uint64) {
	l.readAddrs = append(l.readAddrs, a)
	l.readVals = append(l.readVals, v)
}

// Buffer holds back the write of v to a.
func (l *ValueLog) Buffer(a mem.Addr, v uint64) { l.writes.Put(a, v, math.MaxInt) }

// ReadOnly reports whether the section has written nothing.
func (l *ValueLog) ReadOnly() bool { return l.writes.Lines() == 0 }

// Valid re-reads every logged location with plain loads and reports whether
// all still hold the values read. Every logged read is a pre-write
// observation, so reads of addresses the section later wrote count too.
func (l *ValueLog) Valid(m *mem.Memory) bool {
	for i, a := range l.readAddrs {
		if m.Load(a) != l.readVals[i] {
			return false
		}
	}
	return true
}

// ValidTx is Valid inside a hardware transaction: the locations join tx's
// read set, so a commit of tx validates and publishes in one atomic step.
//
//rtle:speculative
func (l *ValueLog) ValidTx(tx *htm.Tx) bool {
	for i, a := range l.readAddrs {
		if tx.Read(a) != l.readVals[i] {
			return false
		}
	}
	return true
}

// Publish stores the buffered writes line by line. The caller excludes
// every other writer.
func (l *ValueLog) Publish(m *mem.Memory) { l.writes.ForEach(m.Store) }

// PublishTx writes the buffered writes through tx; they take effect when it
// commits.
//
//rtle:speculative
func (l *ValueLog) PublishTx(tx *htm.Tx) { l.writes.ForEach(tx.Write) }
