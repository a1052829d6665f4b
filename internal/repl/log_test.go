package repl

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEntryPayloadRoundTrip checks the wire/file encoding is lossless.
func TestEntryPayloadRoundTrip(t *testing.T) {
	e := Entry{Seq: 42, Ops: []Op{
		{Code: 1, Arg1: 7},
		{Code: 7, Arg1: 1, Arg2: 2, Arg3: 300},
		{Code: 4, Arg1: ^uint64(0), Arg2: 1 << 60},
	}}
	p := AppendEntryPayload(nil, &e)
	got, err := DecodeEntryPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip: got %+v, want %+v", got, e)
	}
	if _, err := DecodeEntryPayload(p[:len(p)-1]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := DecodeEntryPayload(AppendEntryPayload(nil, &Entry{Seq: 1})); err == nil {
		t.Error("zero-op entry decoded without error")
	}
}

// TestAckPayloadRoundTrip checks the acknowledgement encoding.
func TestAckPayloadRoundTrip(t *testing.T) {
	p := AppendAckPayload(nil, 99)
	seq, err := DecodeAckPayload(p)
	if err != nil || seq != 99 {
		t.Fatalf("ack round trip: got (%d, %v)", seq, err)
	}
	if _, err := DecodeAckPayload(p[:7]); err == nil {
		t.Error("short ack decoded without error")
	}
}

// TestLogAppendFrom checks sequencing, suffix reads, and wakeups on the
// memory-only log.
func TestLogAppendFrom(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	ch := l.Subscribe()
	defer l.Unsubscribe(ch)
	for i := 1; i <= 5; i++ {
		if seq := l.Append([]Op{{Code: 1, Arg1: uint64(i)}}); seq != uint64(i) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	select {
	case <-ch:
	default:
		t.Error("no wakeup after appends")
	}
	if hw := l.HighWater(); hw != 5 {
		t.Fatalf("high water %d, want 5", hw)
	}
	got := l.From(3, 10)
	if len(got) != 3 || got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("From(3): %+v", got)
	}
	if got := l.From(6, 10); got != nil {
		t.Fatalf("From past the high-water mark returned %+v", got)
	}
	if got := l.From(1, 2); len(got) != 2 || got[1].Seq != 2 {
		t.Fatalf("From(1, max 2): %+v", got)
	}
}

// TestLogReplicaContiguity checks AppendEntry enforces the contiguous
// sequence contract.
func TestLogReplicaContiguity(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEntry(Entry{Seq: 1, Ops: []Op{{Code: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEntry(Entry{Seq: 3, Ops: []Op{{Code: 1}}}); err == nil {
		t.Fatal("gap append succeeded")
	}
	if err := l.AppendEntry(Entry{Seq: 1, Ops: []Op{{Code: 1}}}); err == nil {
		t.Fatal("stale re-append succeeded")
	}
	if err := l.AppendEntry(Entry{Seq: 2, Ops: []Op{{Code: 2}}}); err != nil {
		t.Fatal(err)
	}
}

// TestLogFilePersistence checks entries survive a close/reopen cycle.
func TestLogFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repl.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]Op{{Code: 1, Arg1: 10}})
	l.Append([]Op{{Code: 2, Arg1: 20}, {Code: 4, Arg1: 21, Arg2: 9}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if hw := l2.HighWater(); hw != 2 {
		t.Fatalf("reloaded high water %d, want 2", hw)
	}
	got := l2.From(1, 10)
	if len(got) != 2 || got[1].Ops[1].Arg1 != 21 {
		t.Fatalf("reloaded entries: %+v", got)
	}
	// Appending after reload continues the sequence on disk.
	if seq := l2.Append([]Op{{Code: 1, Arg1: 30}}); seq != 3 {
		t.Fatalf("post-reload append assigned seq %d, want 3", seq)
	}
}

// TestLogTruncateBelow checks compaction: the floor rises, reads below it
// vanish, sequencing continues above it, and the compacted file reloads
// with the same floor and suffix.
func TestLogTruncateBelow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repl.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		l.Append([]Op{{Code: 1, Arg1: uint64(i)}})
	}
	if err := l.TruncateBelow(4); err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	if f, hw := l.Floor(), l.HighWater(); f != 4 || hw != 10 {
		t.Fatalf("floor %d high-water %d, want 4 and 10", f, hw)
	}
	if got := l.From(1, 10); got != nil {
		t.Fatalf("From below the floor returned %+v", got)
	}
	if got := l.From(5, 2); len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("From(5) after truncation: %+v", got)
	}
	if st := l.LogStats(); st.Entries != 6 || st.Floor != 4 || st.Truncations != 1 || st.Bytes == 0 {
		t.Fatalf("stats after truncation: %+v", st)
	}
	// Truncating at or below the floor is a no-op.
	if err := l.TruncateBelow(2); err != nil {
		t.Fatal(err)
	}
	if st := l.LogStats(); st.Floor != 4 || st.Truncations != 1 {
		t.Fatalf("no-op truncation moved the floor: %+v", st)
	}
	if seq := l.Append([]Op{{Code: 1, Arg1: 11}}); seq != 11 {
		t.Fatalf("post-truncation append assigned seq %d, want 11", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay from the compacted prefix begins at the floor.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f, hw := l2.Floor(), l2.HighWater(); f != 4 || hw != 11 {
		t.Fatalf("reloaded floor %d high-water %d, want 4 and 11", f, hw)
	}
	if got := l2.From(5, 100); len(got) != 7 || got[0].Seq != 5 || got[6].Seq != 11 {
		t.Fatalf("reloaded suffix: %+v", got)
	}
	if seq := l2.Append([]Op{{Code: 1, Arg1: 12}}); seq != 12 {
		t.Fatalf("append after reload assigned seq %d, want 12", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogTruncateAllAndResetTo checks the empty-suffix cases: truncating
// the whole log and the replica bootstrap reset.
func TestLogTruncateAllAndResetTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repl.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		l.Append([]Op{{Code: 1, Arg1: uint64(i)}})
	}
	// Clamped past the high-water mark: everything goes, floor = 3.
	if err := l.TruncateBelow(99); err != nil {
		t.Fatal(err)
	}
	if f, hw := l.Floor(), l.HighWater(); f != 3 || hw != 3 {
		t.Fatalf("floor %d high-water %d after full truncation, want 3 and 3", f, hw)
	}
	if seq := l.Append([]Op{{Code: 1, Arg1: 4}}); seq != 4 {
		t.Fatalf("append on empty suffix assigned seq %d, want 4", seq)
	}
	// Replica bootstrap: the snapshot replaces everything up to 50.
	if err := l.ResetTo(50); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEntry(Entry{Seq: 51, Ops: []Op{{Code: 2}}}); err != nil {
		t.Fatalf("AppendEntry at the reset floor: %v", err)
	}
	if err := l.AppendEntry(Entry{Seq: 53, Ops: []Op{{Code: 2}}}); err == nil {
		t.Fatal("gap append above the reset floor succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if f, hw := l2.Floor(), l2.HighWater(); f != 50 || hw != 51 {
		t.Fatalf("reloaded floor %d high-water %d, want 50 and 51", f, hw)
	}
}

// TestLogRejectsSeqAboveFloor checks a log file whose first entry sits
// above the floor marker's successor is rejected with a clear error — a
// silent gap would desynchronize replay.
func TestLogRejectsSeqAboveFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repl.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Floor marker at 4, then an entry at 7 — seq 5 and 6 are missing.
	write := func(payload []byte) {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		if _, err := f.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	write(floorMarkerPayload(4))
	write(AppendEntryPayload(nil, &Entry{Seq: 7, Ops: []Op{{Code: 1}}}))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("log with a gap above its floor opened without error")
	}
}

// TestLogTornTail checks a crash mid-append (torn record) drops only the
// tail and a corrupt CRC stops the load at the last intact record.
func TestLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repl.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]Op{{Code: 1, Arg1: 1}})
	l.Append([]Op{{Code: 1, Arg1: 2}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the file mid-record: a header promising more bytes than exist.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [8]byte
	binary.BigEndian.PutUint32(torn[:4], 100)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if hw := l2.HighWater(); hw != 2 {
		t.Fatalf("high water after torn tail %d, want 2", hw)
	}
	// The torn tail was truncated, so appends resume cleanly and reload.
	l2.Append([]Op{{Code: 1, Arg1: 3}})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if hw := l3.HighWater(); hw != 3 {
		t.Fatalf("high water after repair %d, want 3", hw)
	}
}

// FuzzLogReplay writes arbitrary bytes as a log file and opens it. Open
// must not panic. It either fails, or keeps a prefix of the file and
// truncates the rest, and what it kept re-encodes to exactly that prefix:
// an optional floor marker for Floor, then one record per entry. With
// reseal, every whole record's CRC is recomputed before the write, so
// mutated payloads reach the entry decoder and the sequence checks
// instead of stopping at the CRC.
func FuzzLogReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "repl.log")
	l, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	snapshot := func() {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, false)
		f.Add(raw, true)
	}
	for i := 1; i <= 3; i++ {
		l.Append([]Op{{Code: 1, Arg1: uint64(i)}, {Code: 4, Arg1: uint64(i), Arg2: 9, Arg3: 1}})
	}
	snapshot()
	if err := l.TruncateBelow(2); err != nil {
		f.Fatal(err)
	}
	snapshot()
	if err := l.ResetTo(50); err != nil {
		f.Fatal(err)
	}
	l.Append([]Op{{Code: 2, Arg1: 7}})
	snapshot()
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, file []byte, reseal bool) {
		if reseal {
			file = resealRecords(file)
		}
		path := filepath.Join(t.TempDir(), "repl.log")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			return
		}
		defer l.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(file, kept) {
			t.Fatalf("Open left %d bytes that are not a prefix of the %d written", len(kept), len(file))
		}
		var entries, marker bytes.Buffer
		for _, e := range l.From(l.Floor()+1, int(l.HighWater()-l.Floor())) {
			_ = writeRecord(&entries, AppendEntryPayload(nil, &e))
		}
		_ = writeRecord(&marker, floorMarkerPayload(l.Floor()))
		head, ok := bytes.CutSuffix(kept, entries.Bytes())
		if !ok || len(head) > 0 && !bytes.Equal(head, marker.Bytes()) || len(head) == 0 && l.Floor() > 0 {
			t.Fatalf("floor %d and %d entries do not re-encode to the %x Open kept",
				l.Floor(), l.HighWater()-l.Floor(), kept)
		}
	})
}

// resealRecords returns a copy of file with the CRC of every whole
// `u32 len | u32 crc | payload` record recomputed.
func resealRecords(file []byte) []byte {
	file = bytes.Clone(file)
	for b := file; len(b) >= 8; {
		n := int(binary.BigEndian.Uint32(b))
		if n > len(b)-8 {
			break
		}
		binary.BigEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[8:8+n]))
		b = b[8+n:]
	}
	return file
}
