package snap

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// collect runs a Writer over s and returns the emitted chunk payloads.
func collect(t testing.TB, s *Snapshot) [][]byte {
	t.Helper()
	var chunks [][]byte
	w := NewWriter(func(p []byte) error {
		chunks = append(chunks, p)
		return nil
	})
	if err := Encode(w, s); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return chunks
}

// decode feeds chunks through a Reader and returns the snapshot.
func decode(t testing.TB, chunks [][]byte) *Snapshot {
	t.Helper()
	r := NewReader()
	for i, p := range chunks {
		done, err := r.Feed(p)
		if err != nil {
			t.Fatalf("Feed chunk %d: %v", i, err)
		}
		if done != (i == len(chunks)-1) {
			t.Fatalf("Feed chunk %d reported done=%v", i, done)
		}
	}
	s, err := r.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := &Snapshot{
		Workload: "map",
		Keys:     1024,
		Seq:      77,
		Shards: [][]Item{
			{{Key: 1, Val: 10}, {Key: 5, Val: 50}},
			nil, // an empty shard emits no items chunks but must survive
			{{Key: 9, Val: 90}},
		},
	}
	got := decode(t, collect(t, s))
	if got.Workload != "map" || got.Keys != 1024 || got.Seq != 77 {
		t.Fatalf("header round-trip: %+v", got)
	}
	if len(got.Shards) != 3 || got.Shards[1] != nil {
		t.Fatalf("shards round-trip: %+v", got.Shards)
	}
	if !reflect.DeepEqual(got.Shards[0], s.Shards[0]) || !reflect.DeepEqual(got.Shards[2], s.Shards[2]) {
		t.Fatalf("items round-trip: %+v", got.Shards)
	}
}

func TestChunking(t *testing.T) {
	items := make([]Item, MaxChunkItems*2+7)
	for i := range items {
		items[i] = Item{Key: uint64(i), Val: uint64(i) * 3}
	}
	s := &Snapshot{Workload: "set", Keys: uint64(len(items)), Seq: 1, Shards: [][]Item{items}}
	chunks := collect(t, s)
	// header + 3 items chunks (512+512+7) + end
	if len(chunks) != 5 {
		t.Fatalf("got %d chunks, want 5", len(chunks))
	}
	got := decode(t, chunks)
	if !reflect.DeepEqual(got.Shards[0], items) {
		t.Fatalf("chunked items did not reassemble")
	}
}

func TestIsChunkDisjointFromEntryPayloads(t *testing.T) {
	// A replication entry payload begins with a u64 sequence; the magic
	// would require seq >= 0x534e4150<<32, unreachable in practice. A
	// realistic entry payload must not look like a chunk.
	entry := binary.BigEndian.AppendUint64(nil, 123456)
	entry = binary.BigEndian.AppendUint16(entry, 1)
	if IsChunk(entry) {
		t.Fatalf("entry payload misidentified as snapshot chunk")
	}
	chunks := collect(t, &Snapshot{Workload: "set", Keys: 1, Seq: 0, Shards: [][]Item{{{Key: 1}}}})
	for i, p := range chunks {
		if !IsChunk(p) {
			t.Fatalf("chunk %d not identified", i)
		}
	}
}

func TestReaderRejectsCorruption(t *testing.T) {
	base := &Snapshot{Workload: "bank", Keys: 4, Seq: 9,
		Shards: [][]Item{{{Key: 0, Val: 100}, {Key: 1, Val: 100}, {Key: 2, Val: 100}, {Key: 3, Val: 100}}}}

	t.Run("flipped item byte fails CRC", func(t *testing.T) {
		chunks := collect(t, base)
		bad := append([][]byte(nil), chunks...)
		tampered := append([]byte(nil), bad[1]...)
		tampered[len(tampered)-1] ^= 0xff
		bad[1] = tampered
		r := NewReader()
		var ferr error
		for _, p := range bad {
			if _, ferr = r.Feed(p); ferr != nil {
				break
			}
		}
		if ferr == nil {
			t.Fatalf("tampered stream accepted")
		}
	})

	t.Run("items before header", func(t *testing.T) {
		chunks := collect(t, base)
		r := NewReader()
		if _, err := r.Feed(chunks[1]); err == nil {
			t.Fatalf("items chunk before header accepted")
		}
	})

	t.Run("incomplete stream", func(t *testing.T) {
		chunks := collect(t, base)
		r := NewReader()
		for _, p := range chunks[:len(chunks)-1] {
			if _, err := r.Feed(p); err != nil {
				t.Fatalf("Feed: %v", err)
			}
		}
		if _, err := r.Snapshot(); err == nil {
			t.Fatalf("incomplete stream yielded a snapshot")
		}
	})

	t.Run("shard out of range", func(t *testing.T) {
		chunks := collect(t, base)
		tampered := append([]byte(nil), chunks[1]...)
		binary.BigEndian.PutUint16(tampered[5:], 7) // header declared 1 shard
		r := NewReader()
		if _, err := r.Feed(chunks[0]); err != nil {
			t.Fatalf("Feed header: %v", err)
		}
		if _, err := r.Feed(tampered); err == nil {
			t.Fatalf("out-of-range shard accepted")
		}
	})
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")

	if s, err := ReadFile(path); err != nil || s != nil {
		t.Fatalf("missing file: got %+v, %v; want nil, nil", s, err)
	}

	want := &Snapshot{Workload: "map", Keys: 64, Seq: 42,
		Shards: [][]Item{{{Key: 3, Val: 33}}, {{Key: 4, Val: 44}, {Key: 8, Val: 88}}}}
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file round-trip: got %+v, want %+v", got, want)
	}

	// Truncate the file mid-stream: the load must fail, not yield a prefix.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatalf("torn snapshot file accepted")
	}
}

// joinChunks frames chunk payloads as `u16 len | payload` records, the
// input form of FuzzSnapReader.
func joinChunks(chunks [][]byte) []byte {
	var b []byte
	for _, p := range chunks {
		b = binary.BigEndian.AppendUint16(b, uint16(len(p)))
		b = append(b, p...)
	}
	return b
}

// splitChunks undoes joinChunks on any bytes: a record whose length runs
// past the end is the bytes that are left.
func splitChunks(b []byte) [][]byte {
	var chunks [][]byte
	for len(b) > 0 {
		n := len(b)
		if len(b) >= 2 {
			n = min(int(binary.BigEndian.Uint16(b)), len(b)-2)
			b = b[2:]
		}
		chunks = append(chunks, b[:n])
		b = b[n:]
	}
	return chunks
}

// FuzzSnapReader feeds arbitrary chunk sequences to a Reader. It must not
// panic; what it allocates must stay within a constant factor of the bytes
// fed, plus the slice headers of an accepted snapshot's shards; and a
// stream it accepts must come back unchanged through Encode.
func FuzzSnapReader(f *testing.F) {
	for _, s := range []*Snapshot{
		{Workload: "map", Keys: 1024, Seq: 77, Shards: [][]Item{{{Key: 1, Val: 10}, {Key: 5, Val: 50}}, nil, {{Key: 9, Val: 90}}}},
		{Workload: "set", Keys: 16, Shards: [][]Item{{{Key: 3}}}},
		{Workload: "bank", Keys: 4, Seq: 9, Shards: [][]Item{{{Key: 0, Val: 100}, {Key: 1, Val: 100}}, {{Key: 2, Val: 100}, {Key: 3, Val: 100}}}},
	} {
		f.Add(joinChunks(collect(f, s)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader()
		var (
			done bool
			err  error
		)
		for _, p := range splitChunks(b) {
			if done, err = r.Feed(p); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		accepted := err == nil && done
		var shards uint64
		if accepted {
			s, _ := r.Snapshot()
			shards = uint64(len(s.Shards))
		}
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(b))+24*shards+16<<10; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(b), alloc, bound)
		}
		if !accepted {
			return
		}
		s, err := r.Snapshot()
		if err != nil {
			t.Fatalf("Feed reported done but Snapshot failed: %v", err)
		}
		if again := decode(t, collect(t, s)); !reflect.DeepEqual(again, s) {
			t.Fatalf("Encode round trip changed the snapshot: %+v, then %+v", s, again)
		}
	})
}
