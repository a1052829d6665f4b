package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"rtle/internal/core"
	"rtle/internal/mem"
)

// traceEvery is the sampling period of the traced repetition: every 64th
// operation of each thread or slot records its spans.
const traceEvery = 64

// span is one timed interval at a layer boundary. Spans of one operation
// share the root's ID through the Parent chain; times are nanoseconds
// since the traced repetition started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     string `json:"op"`
	// Body spans only: which execution of the closure this was, whether it
	// ran inside a hardware transaction, and the accesses it made.
	Attempt int  `json:"attempt,omitempty"`
	InHTM   bool `json:"in_htm,omitempty"`
	Reads   int  `json:"reads,omitempty"`
	Writes  int  `json:"writes,omitempty"`
}

// traceBuf is one thread's (or slot's) preallocated span buffer. It is
// written by exactly one goroutine and read after that goroutine stops.
// When the buffer is full further spans are dropped and counted.
type traceBuf struct {
	base    time.Time
	owner   uint64 // high bits of every ID, so IDs are unique across buffers
	spans   []span
	dropped int
}

func newTraceBuf(base time.Time, owner, capacity int) *traceBuf {
	return &traceBuf{base: base, owner: uint64(owner+1) << 40, spans: make([]span, 0, capacity)}
}

func (b *traceBuf) now() int64 { return int64(time.Since(b.base)) }

// begin opens a span and returns its index, or -1 when the buffer is full.
func (b *traceBuf) begin(name string, parent uint64, op string) int {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	i := len(b.spans)
	b.spans = append(b.spans, span{Name: name, ID: b.owner | uint64(i+1), Parent: parent, Op: op, Start: b.now()})
	return i
}

// id returns the ID of the span at index i (0 for a dropped span).
func (b *traceBuf) id(i int) uint64 {
	if i < 0 {
		return 0
	}
	return b.spans[i].ID
}

func (b *traceBuf) end(i int) {
	if i >= 0 {
		b.spans[i].End = b.now()
	}
}

// add records a span whose interval the caller measured itself.
func (b *traceBuf) add(name string, parent uint64, op string, start, end time.Time) uint64 {
	i := b.begin(name, parent, op)
	if i < 0 {
		return 0
	}
	b.spans[i].Start = int64(start.Sub(b.base))
	b.spans[i].End = int64(end.Sub(b.base))
	return b.spans[i].ID
}

// countCtx wraps the Context a method hands to a body and counts the
// accesses the body makes, so a body span's time can be read as accesses
// times the per-access probe cost.
type countCtx struct {
	core.Context
	reads, writes int
}

func (c *countCtx) Read(a mem.Addr) uint64 {
	c.reads++
	return c.Context.Read(a)
}

func (c *countCtx) Write(a mem.Addr, v uint64) {
	c.writes++
	c.Context.Write(a, v)
}

// tracedSection runs body through run (Thread.Atomic or a guard's Do/RDo)
// with a section span under parent and one body span per execution of the
// closure, re-executions included. Aborts unwind the body by panic, so the
// body span is closed in a defer.
func tracedSection(b *traceBuf, name string, parent uint64, op string, run func(func(core.Context)), body func(core.Context)) {
	sec := b.begin(name, parent, op)
	secID := b.id(sec)
	attempt := 0
	run(func(c core.Context) {
		attempt++
		cc := &countCtx{Context: c}
		i := b.begin("body", secID, op)
		defer func() {
			if i >= 0 {
				s := &b.spans[i]
				s.End, s.Attempt, s.InHTM, s.Reads, s.Writes = b.now(), attempt, c.InHTM(), cc.reads, cc.writes
			}
		}()
		body(cc)
	})
	b.end(sec)
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Count int
	Total int64 // Σ (end − start)
	Self  int64 // Σ self time
}

// selfTimes computes, per span name, the total and self time: a span's
// self time is its duration minus the part of its interval that its
// children cover (children are clipped to the parent and overlapping
// children are counted once).
func selfTimes(spans []span) map[string]*selfStat {
	type iv struct{ lo, hi int64 }
	children := make(map[uint64][]iv)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], iv{spans[i].Start, spans[i].End})
		}
	}
	out := make(map[string]*selfStat)
	for i := range spans {
		s := &spans[i]
		st := out[s.Name]
		if st == nil {
			st = &selfStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		var covered int64
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st.Count++
		st.Total += dur
		st.Self += dur - covered
	}
	return out
}

// countRecord is a counter scraped at the start and end of the traced
// window, written beside the spans so ratios are read where the work
// happens.
type countRecord struct {
	Name  string  `json:"name"` // always "count"
	Key   string  `json:"counter"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// writeTrace writes spans then counters as JSON lines.
func writeTrace(path string, bufs []*traceBuf, counts []countRecord) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, b := range bufs {
		for i := range b.spans {
			if err := enc.Encode(&b.spans[i]); err != nil {
				return fmt.Errorf("trace file: %w", err)
			}
		}
	}
	for i := range counts {
		if err := enc.Encode(&counts[i]); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// allSpans concatenates the buffers and sums their drops.
func allSpans(bufs []*traceBuf) (spans []span, dropped int) {
	for _, b := range bufs {
		spans = append(spans, b.spans...)
		dropped += b.dropped
	}
	return spans, dropped
}
