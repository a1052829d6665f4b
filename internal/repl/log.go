package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// Log is the ordered block log. Entries are immutable once appended and
// sequence numbers are contiguous above the compaction floor, so readers
// can stream any suffix without coordination beyond the high-water mark.
// A primary assigns sequence numbers with Append; a replica mirrors the
// primary's numbering with AppendEntry, which enforces contiguity — a gap
// means the stream desynchronized and the subscriber must resubscribe
// from its own high-water mark.
//
// The floor is the highest sequence compaction has discarded (0 when the
// log still reaches back to genesis). Entries at or below the floor are
// gone: replaying them requires a snapshot stamped at floor or later.
// TruncateBelow raises the floor; on a file-mirrored log the file is
// rewritten atomically (tmp + rename) with a floor-marker record — a
// zero-op record carrying the floor sequence — as its first record, so a
// later Open knows where the retained suffix starts.
type Log struct {
	mu      sync.Mutex
	floor   uint64 // highest compacted-away sequence; entries[i].Seq == floor+i+1
	entries []Entry
	bytes   int64  // encoded size of retained entry records (header + payload)
	truncs  uint64 // completed truncations (TruncateBelow / ResetTo)
	path    string // file-mirror path; "" when memory-only
	f       *os.File
	bw      *bufio.Writer
	err     error // sticky file-append error; the memory log stays authoritative
	subs    map[chan struct{}]struct{}
}

// recordBytes is the on-disk (and accounting) size of one entry record:
// 8-byte header plus the `u64 seq | u16 n | n ops` payload.
func recordBytes(e *Entry) int64 {
	return int64(8 + 10 + len(e.Ops)*opBytes)
}

// Open returns a Log mirrored to the append-only file at path, loading
// any entries a previous process left there (a torn tail is dropped). An
// empty path keeps the log memory-only.
func Open(path string) (*Log, error) {
	l := &Log{subs: make(map[chan struct{}]struct{}), path: path}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	n, err := l.load(f)
	if err != nil {
		_ = f.Close() // the load error is the one to report
		return nil, err
	}
	// Truncate a torn tail (or trailing garbage) so appends resume from a
	// clean record boundary.
	if err := f.Truncate(n); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.Seek(n, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	return l, nil
}

// load reads records from f until EOF or the first torn/corrupt record,
// returning the byte offset of the last intact record's end. A zero-op
// record is the floor marker; it is legal only as the very first record.
func (l *Log) load(f *os.File) (int64, error) {
	br := bufio.NewReaderSize(f, 1<<16)
	var good int64
	var hdr [8]byte
	first := true
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return good, nil // EOF or torn header: keep the intact prefix
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n < 10 || n > 10+MaxOps*opBytes {
			return good, nil // corrupt length: stop at the intact prefix
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, nil // bit rot or torn rewrite
		}
		if n == 10 && binary.BigEndian.Uint16(payload[8:]) == 0 {
			// Floor marker: the retained suffix starts above this sequence.
			floor := binary.BigEndian.Uint64(payload)
			if !first || floor == math.MaxUint64 {
				// A marker mid-file, or one with no sequence above it (the
				// next entry's would wrap to 0), is garbage: stop before it.
				return good, nil
			}
			l.floor = floor
			first = false
			good += int64(8 + n)
			continue
		}
		first = false
		e, err := DecodeEntryPayload(payload)
		if err != nil {
			return good, nil
		}
		if e.Seq != l.floor+uint64(len(l.entries))+1 {
			return 0, fmt.Errorf("repl: log file record %d carries seq %d, want %d",
				len(l.entries)+1, e.Seq, l.floor+uint64(len(l.entries))+1)
		}
		l.entries = append(l.entries, e)
		l.bytes += recordBytes(&e)
		good += int64(8 + n)
	}
}

// Append assigns the next sequence number to one committed block's
// mutating operations and appends it. ops is copied; the caller may reuse
// its slice. len(ops) must be in [1, MaxOps] (the serving layer chunks
// larger blocks).
func (l *Log) Append(ops []Op) uint64 {
	if len(ops) == 0 || len(ops) > MaxOps {
		panic(fmt.Sprintf("repl: Append with %d ops", len(ops)))
	}
	e := Entry{Ops: append([]Op(nil), ops...)}
	l.mu.Lock()
	e.Seq = l.floor + uint64(len(l.entries)) + 1
	l.append(e)
	l.mu.Unlock()
	return e.Seq
}

// AppendEntry appends an entry carrying its primary-assigned sequence
// number (the replica path). The sequence must be exactly the current
// high-water mark plus one.
func (l *Log) AppendEntry(e Entry) error {
	if len(e.Ops) == 0 || len(e.Ops) > MaxOps {
		return fmt.Errorf("repl: entry with %d ops", len(e.Ops))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := l.floor + uint64(len(l.entries)) + 1; e.Seq != want {
		return fmt.Errorf("repl: appending seq %d at high-water %d", e.Seq, want-1)
	}
	l.append(e)
	return nil
}

// append installs e (seq already assigned and checked), mirrors it to the
// file, and wakes streamers. Called with mu held.
func (l *Log) append(e Entry) {
	l.entries = append(l.entries, e)
	l.bytes += recordBytes(&e)
	if l.bw != nil && l.err == nil {
		payload := AppendEntryPayload(nil, &e)
		if err := writeRecord(l.bw, payload); err != nil {
			l.err = err
		} else if err := l.bw.Flush(); err != nil {
			// Flush per append: the file is only useful if it tracks the
			// memory log closely. The mirror is best-effort (see package
			// doc), so a failure is sticky and surfaced via Err, not fatal.
			l.err = err
		}
	}
	for ch := range l.subs {
		select {
		case ch <- struct{}{}:
		default: // the subscriber already has a wakeup pending
		}
	}
}

// writeRecord writes one `u32 len | u32 crc32 | payload` record.
func writeRecord(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// floorMarkerPayload encodes the zero-op floor-marker record payload.
func floorMarkerPayload(floor uint64) []byte {
	p := binary.BigEndian.AppendUint64(nil, floor)
	return binary.BigEndian.AppendUint16(p, 0)
}

// TruncateBelow discards every entry with sequence ≤ seq, raising the
// compaction floor. The caller owns the safety argument: seq must be
// covered by a durable snapshot, and no live subscriber may still need
// the discarded prefix. Sequences at or below the current floor are a
// no-op; seq is clamped to the high-water mark. The in-memory log
// truncates unconditionally; the file mirror is rewritten atomically and
// a rewrite failure is sticky (an un-truncated file is a superset of the
// log, so a stale mirror is safe) and returned.
func (l *Log) TruncateBelow(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.floor {
		return nil
	}
	if hw := l.floor + uint64(len(l.entries)); seq > hw {
		seq = hw
	}
	drop := int(seq - l.floor)
	l.entries = append([]Entry(nil), l.entries[drop:]...)
	l.floor = seq
	l.bytes = 0
	for i := range l.entries {
		l.bytes += recordBytes(&l.entries[i])
	}
	l.truncs++
	return l.rewriteLocked()
}

// ResetTo discards the whole log and restarts it empty at floor seq — the
// replica snapshot-bootstrap path: the snapshot replaces every entry ≤
// seq, and the primary's stream resumes at seq+1. Called with no
// concurrent appenders.
func (l *Log) ResetTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = nil
	l.floor = seq
	l.bytes = 0
	l.truncs++
	return l.rewriteLocked()
}

// rewriteLocked replaces the file mirror with a floor marker plus the
// retained entries, atomically (tmp + rename). Called with mu held. On
// failure the old file stays in place and the error is sticky.
func (l *Log) rewriteLocked() error {
	if l.f == nil {
		return nil
	}
	fail := func(err error) error {
		if l.err == nil {
			l.err = err
		}
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(l.path), ".rtle-log-*")
	if err != nil {
		return fail(err)
	}
	bw := bufio.NewWriterSize(tmp, 1<<16)
	werr := func() error {
		if l.floor > 0 {
			if err := writeRecord(bw, floorMarkerPayload(l.floor)); err != nil {
				return err
			}
		}
		for i := range l.entries {
			if err := writeRecord(bw, AppendEntryPayload(nil, &l.entries[i])); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return tmp.Sync()
	}()
	if werr == nil {
		werr = tmp.Close()
	} else {
		_ = tmp.Close()
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), l.path)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return fail(werr)
	}
	// Swap the handle to the renamed file, positioned for appends.
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fail(err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return fail(err)
	}
	_ = l.bw.Flush()
	_ = l.f.Close()
	l.f, l.bw = f, bufio.NewWriterSize(f, 1<<16)
	return nil
}

// HighWater returns the sequence of the latest entry (the floor when the
// retained suffix is empty, 0 for a fresh log).
func (l *Log) HighWater() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor + uint64(len(l.entries))
}

// Floor returns the highest compacted-away sequence (0 when the log still
// reaches back to genesis).
func (l *Log) Floor() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// Stats is a point-in-time observability snapshot of the log.
type Stats struct {
	Entries     int    // retained entries (above the floor)
	Bytes       int64  // encoded size of the retained entry records
	Floor       uint64 // highest compacted-away sequence
	Truncations uint64 // completed TruncateBelow/ResetTo calls
}

// LogStats returns current log statistics.
func (l *Log) LogStats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Entries: len(l.entries), Bytes: l.bytes, Floor: l.floor, Truncations: l.truncs}
}

// From returns up to max entries starting at sequence seq (1-based). The
// returned entries are immutable; callers must not modify their Ops.
// Sequences at or below the compaction floor return nil exactly like
// sequences past the high-water mark: the caller is expected to have
// guarded against requesting a compacted prefix (serveSubscriber answers
// such a subscriber with a snapshot instead).
func (l *Log) From(seq uint64, max int) []Entry {
	if seq == 0 {
		seq = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.floor {
		return nil
	}
	idx := seq - l.floor // 1-based index into the retained suffix
	if idx > uint64(len(l.entries)) {
		return nil
	}
	end := idx - 1 + uint64(max)
	if end > uint64(len(l.entries)) {
		end = uint64(len(l.entries))
	}
	return l.entries[idx-1 : end]
}

// Subscribe returns a channel that receives a wakeup after every append.
// Pair with Unsubscribe.
func (l *Log) Subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	l.mu.Lock()
	l.subs[ch] = struct{}{}
	l.mu.Unlock()
	return ch
}

// Unsubscribe removes a Subscribe channel.
func (l *Log) Unsubscribe(ch chan struct{}) {
	l.mu.Lock()
	delete(l.subs, ch)
	l.mu.Unlock()
}

// Err returns the sticky file-mirror error, if any. The in-memory log
// (and therefore replication) keeps working after a mirror failure.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes and closes the file mirror. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	ferr := l.bw.Flush()
	if cerr := l.f.Close(); ferr == nil {
		ferr = cerr
	}
	l.f, l.bw = nil, nil
	if l.err == nil {
		l.err = ferr
	}
	return ferr
}
