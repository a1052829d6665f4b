package core

import (
	"rtle/internal/htm"
	"rtle/internal/mem"
)

// ValueLog is what a buffered software section keeps while it runs: every
// location it read with the value it saw, and its writes, held back in
// program order until the section is known to be consistent. The three
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
// It is exported for the same reason Recorder is: the STM and hybrid methods
// live outside this package. A ValueLog belongs to one thread.
type ValueLog struct {
	readAddrs  []mem.Addr
	readVals   []uint64
	writeVals  map[mem.Addr]uint64
	writeOrder []mem.Addr // distinct written addresses, first write first
}

// NewValueLog returns an empty log.
func NewValueLog() ValueLog {
	return ValueLog{writeVals: make(map[mem.Addr]uint64, 64)}
}

// Reset empties the log for the next attempt, keeping its storage.
func (l *ValueLog) Reset() {
	l.readAddrs = l.readAddrs[:0]
	l.readVals = l.readVals[:0]
	clear(l.writeVals)
	l.writeOrder = l.writeOrder[:0]
}

// Written returns the value this section buffered for a, if it wrote a: a
// section reads its own writes.
func (l *ValueLog) Written(a mem.Addr) (uint64, bool) {
	if len(l.writeVals) == 0 {
		return 0, false
	}
	v, ok := l.writeVals[a]
	return v, ok
}

// LogRead records that the section read v at a.
func (l *ValueLog) LogRead(a mem.Addr, v uint64) {
	l.readAddrs = append(l.readAddrs, a)
	l.readVals = append(l.readVals, v)
}

// Buffer holds back the write of v to a.
func (l *ValueLog) Buffer(a mem.Addr, v uint64) {
	if _, ok := l.writeVals[a]; !ok {
		l.writeOrder = append(l.writeOrder, a)
	}
	l.writeVals[a] = v
}

// ReadOnly reports whether the section has written nothing.
func (l *ValueLog) ReadOnly() bool { return len(l.writeOrder) == 0 }

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

// Publish stores the buffered writes in program order. The caller excludes
// every other writer.
func (l *ValueLog) Publish(m *mem.Memory) {
	for _, a := range l.writeOrder {
		m.Store(a, l.writeVals[a])
	}
}

// PublishTx writes the buffered writes through tx; they take effect when it
// commits.
//
//rtle:speculative
func (l *ValueLog) PublishTx(tx *htm.Tx) {
	for _, a := range l.writeOrder {
		tx.Write(a, l.writeVals[a])
	}
}
