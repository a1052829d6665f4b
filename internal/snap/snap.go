// Package snap is the snapshot engine behind rtled's state-transfer
// story: a consistent cut of the full three-ADT state of every shard,
// stamped with the replication-log sequence it reflects, encoded as a
// stream of small self-describing chunks.
//
// A snapshot is the serving layer's bridge between the replication log
// and materialized state. The capture runs under the same exclusive
// drain gates that order the log (DESIGN.md §7/§11), so a snapshot
// stamped Seq=S is exactly the state produced by replaying the log
// prefix ≤ S from genesis. That one equivalence powers four consumers:
// warm checker seeding, live resharding, replica fast-bootstrap, and
// log compaction.
//
// # Chunk encoding
//
// Every chunk payload begins with the 4-byte magic "SNAP" followed by a
// chunk-type byte, so snapshot chunks are distinguishable from
// replication entry payloads sharing a frame stream (an entry payload
// begins with a u64 sequence; sequences near 0x534e4150_00000000 are
// ~6×10^18 entries away, far past any reachable log). Three chunk types:
//
//	header: "SNAP" | u8 1 | u8 version | u8 workload | u64 keys | u64 seq | u16 shards
//	items:  "SNAP" | u8 2 | u16 shard | u16 n | n × (u64 key | u64 val)
//	end:    "SNAP" | u8 3 | u64 count | u32 crc32
//
// Items chunks carry at most MaxChunkItems pairs, so every chunk fits
// comfortably inside one rtled/1 wire frame. The end chunk carries the
// total item count and a CRC32-IEEE over the item bytes in stream order,
// making a snapshot self-validating wherever it travels — wire frames or
// the snapshot file's length-prefixed records.
//
// The same chunk bytes serve as wire-frame payloads (the serving layer
// adds the u32 length prefix) and as file-record payloads (WriteFile
// adds the same prefix), so there is exactly one encoder and one
// decoder.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Version is the snapshot encoding version carried in the header chunk.
const Version = 1

// MaxChunkItems bounds the key/val pairs of one items chunk: 512 pairs
// is 8 KiB of item data, far under the serving layer's frame cap, and
// small enough that streaming a large shard never builds one giant
// buffer.
const MaxChunkItems = 512

// Chunk types, after the magic.
const (
	chunkHeader = 1
	chunkItems  = 2
	chunkEnd    = 3
)

// Workload codes carried in the header chunk.
const (
	workloadSet  = 1
	workloadMap  = 2
	workloadBank = 3
)

const magic = "SNAP"

// headerLen is the exact encoded size of a header chunk.
const headerLen = 4 + 1 + 1 + 1 + 8 + 8 + 2

// endLen is the exact encoded size of an end chunk.
const endLen = 4 + 1 + 8 + 4

// Item is one key/value pair of snapshot state. For the set workload Val
// is 0 (membership is the state); for map it is the mapped value; for
// bank the Key is the global account and Val its balance.
type Item struct {
	Key, Val uint64
}

// itemBytes is the fixed encoding size of one Item.
const itemBytes = 16

// Snapshot is one decoded (or to-be-encoded) consistent cut.
type Snapshot struct {
	Workload string // "set", "map", or "bank"
	Keys     uint64 // the server's key-space size (bank: account count)
	Seq      uint64 // replication-log sequence the state reflects (0: unreplicated)
	Shards   [][]Item
}

// Count returns the total item count across all source shards.
func (s *Snapshot) Count() int {
	n := 0
	for _, items := range s.Shards {
		n += len(items)
	}
	return n
}

// workloadCode maps a workload name to its header byte.
func workloadCode(w string) (uint8, error) {
	switch w {
	case "set":
		return workloadSet, nil
	case "map":
		return workloadMap, nil
	case "bank":
		return workloadBank, nil
	}
	return 0, fmt.Errorf("snap: unknown workload %q", w)
}

// workloadName maps a header byte back to the workload name.
func workloadName(c uint8) (string, error) {
	switch c {
	case workloadSet:
		return "set", nil
	case workloadMap:
		return "map", nil
	case workloadBank:
		return "bank", nil
	}
	return "", fmt.Errorf("snap: unknown workload code %d", c)
}

// IsChunk reports whether payload is a snapshot chunk (begins with the
// snapshot magic). Used by stream readers that interleave snapshot
// chunks with replication entries.
func IsChunk(payload []byte) bool {
	return len(payload) >= 5 && string(payload[:4]) == magic
}

// Writer encodes a snapshot as a chunk stream, handing each complete
// chunk payload to emit. Every payload is freshly allocated: emit may
// retain it (the serving layer queues frames for an asynchronous write
// loop).
type Writer struct {
	emit  func(payload []byte) error
	crc   uint32
	count uint64
	state int // 0 fresh, 1 header sent, 2 ended
}

// NewWriter returns a Writer streaming chunks to emit.
func NewWriter(emit func(payload []byte) error) *Writer {
	return &Writer{emit: emit}
}

// Header emits the header chunk. Must be called exactly once, first.
func (w *Writer) Header(workload string, keys, seq uint64, shards int) error {
	if w.state != 0 {
		return fmt.Errorf("snap: header chunk out of order")
	}
	code, err := workloadCode(workload)
	if err != nil {
		return err
	}
	if shards < 1 || shards > int(^uint16(0)) {
		return fmt.Errorf("snap: %d shards outside uint16", shards)
	}
	p := make([]byte, 0, headerLen)
	p = append(p, magic...)
	p = append(p, chunkHeader, Version, code)
	p = binary.BigEndian.AppendUint64(p, keys)
	p = binary.BigEndian.AppendUint64(p, seq)
	p = binary.BigEndian.AppendUint16(p, uint16(shards))
	w.state = 1
	return w.emit(p)
}

// Items emits the items of one source shard, split into chunks of at
// most MaxChunkItems pairs.
func (w *Writer) Items(shard int, items []Item) error {
	if w.state != 1 {
		return fmt.Errorf("snap: items chunk out of order")
	}
	for len(items) > 0 {
		n := len(items)
		if n > MaxChunkItems {
			n = MaxChunkItems
		}
		p := make([]byte, 0, 4+1+2+2+n*itemBytes)
		p = append(p, magic...)
		p = append(p, chunkItems)
		p = binary.BigEndian.AppendUint16(p, uint16(shard))
		p = binary.BigEndian.AppendUint16(p, uint16(n))
		for _, it := range items[:n] {
			p = binary.BigEndian.AppendUint64(p, it.Key)
			p = binary.BigEndian.AppendUint64(p, it.Val)
		}
		w.crc = crc32.Update(w.crc, crc32.IEEETable, p[9:])
		w.count += uint64(n)
		if err := w.emit(p); err != nil {
			return err
		}
		items = items[n:]
	}
	return nil
}

// End emits the end chunk carrying the running item count and CRC.
func (w *Writer) End() error {
	if w.state != 1 {
		return fmt.Errorf("snap: end chunk out of order")
	}
	p := make([]byte, 0, endLen)
	p = append(p, magic...)
	p = append(p, chunkEnd)
	p = binary.BigEndian.AppendUint64(p, w.count)
	p = binary.BigEndian.AppendUint32(p, w.crc)
	w.state = 2
	return w.emit(p)
}

// Encode streams s through w: header, every shard's items, end.
func Encode(w *Writer, s *Snapshot) error {
	if err := w.Header(s.Workload, s.Keys, s.Seq, len(s.Shards)); err != nil {
		return err
	}
	for k, items := range s.Shards {
		if err := w.Items(k, items); err != nil {
			return err
		}
	}
	return w.End()
}

// Reader decodes a chunk stream back into a Snapshot. Feed it chunk
// payloads in stream order; it validates ordering, shard indices, and
// the end chunk's count and CRC.
type Reader struct {
	s *Snapshot
	// shards is the header's shard count; items collects each shard's
	// pairs until the end chunk validates and builds s.Shards, so a
	// header allocates nothing for the shards it merely declares.
	shards int
	items  map[int][]Item
	crc    uint32
	count  uint64
	done   bool
}

// NewReader returns a Reader awaiting a header chunk.
func NewReader() *Reader { return &Reader{} }

// Feed consumes one chunk payload. It returns done=true once the end
// chunk has validated; Snapshot may then be called. Feeding a malformed
// or out-of-order chunk returns an error and poisons nothing — the
// caller abandons the stream.
func (r *Reader) Feed(payload []byte) (done bool, err error) {
	if r.done {
		return true, fmt.Errorf("snap: chunk after end chunk")
	}
	if !IsChunk(payload) {
		return false, fmt.Errorf("snap: payload without snapshot magic")
	}
	switch payload[4] {
	case chunkHeader:
		if r.s != nil {
			return false, fmt.Errorf("snap: duplicate header chunk")
		}
		if len(payload) != headerLen {
			return false, fmt.Errorf("snap: header chunk of %d bytes, want %d", len(payload), headerLen)
		}
		if v := payload[5]; v != Version {
			return false, fmt.Errorf("snap: snapshot version %d, reader speaks %d", v, Version)
		}
		w, err := workloadName(payload[6])
		if err != nil {
			return false, err
		}
		shards := int(binary.BigEndian.Uint16(payload[23:]))
		if shards < 1 {
			return false, fmt.Errorf("snap: header declares 0 shards")
		}
		r.s = &Snapshot{
			Workload: w,
			Keys:     binary.BigEndian.Uint64(payload[7:]),
			Seq:      binary.BigEndian.Uint64(payload[15:]),
		}
		r.shards, r.items = shards, map[int][]Item{}
		return false, nil
	case chunkItems:
		if r.s == nil {
			return false, fmt.Errorf("snap: items chunk before header")
		}
		if len(payload) < 9 {
			return false, fmt.Errorf("snap: truncated items chunk (%d bytes)", len(payload))
		}
		shard := int(binary.BigEndian.Uint16(payload[5:]))
		n := int(binary.BigEndian.Uint16(payload[7:]))
		if shard >= r.shards {
			return false, fmt.Errorf("snap: items chunk for shard %d of %d", shard, r.shards)
		}
		if n == 0 || n > MaxChunkItems {
			return false, fmt.Errorf("snap: items chunk of %d pairs outside [1,%d]", n, MaxChunkItems)
		}
		body := payload[9:]
		if len(body) != n*itemBytes {
			return false, fmt.Errorf("snap: items chunk body of %d bytes, want %d", len(body), n*itemBytes)
		}
		r.crc = crc32.Update(r.crc, crc32.IEEETable, body)
		r.count += uint64(n)
		items := r.items[shard]
		for i := 0; i < n; i++ {
			items = append(items, Item{
				Key: binary.BigEndian.Uint64(body[i*itemBytes:]),
				Val: binary.BigEndian.Uint64(body[i*itemBytes+8:]),
			})
		}
		r.items[shard] = items
		return false, nil
	case chunkEnd:
		if r.s == nil {
			return false, fmt.Errorf("snap: end chunk before header")
		}
		if len(payload) != endLen {
			return false, fmt.Errorf("snap: end chunk of %d bytes, want %d", len(payload), endLen)
		}
		count := binary.BigEndian.Uint64(payload[5:])
		crc := binary.BigEndian.Uint32(payload[13:])
		if count != r.count {
			return false, fmt.Errorf("snap: end chunk declares %d items, stream carried %d", count, r.count)
		}
		if crc != r.crc {
			return false, fmt.Errorf("snap: snapshot CRC mismatch")
		}
		r.s.Shards = make([][]Item, r.shards)
		for k, items := range r.items {
			r.s.Shards[k] = items
		}
		r.items, r.done = nil, true
		return true, nil
	}
	return false, fmt.Errorf("snap: unknown chunk type %d", payload[4])
}

// Snapshot returns the decoded snapshot after Feed reported done.
func (r *Reader) Snapshot() (*Snapshot, error) {
	if !r.done {
		return nil, fmt.Errorf("snap: snapshot stream incomplete")
	}
	return r.s, nil
}

// WriteFile persists s at path atomically (tmp + rename + sync). The
// file is the chunk stream with each chunk as a `u32 len | payload`
// record; integrity rides on the end chunk's count and CRC.
func WriteFile(path string, s *Snapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".rtle-snap-*")
	if err != nil {
		return err
	}
	w := NewWriter(func(payload []byte) error {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		if _, err := tmp.Write(hdr[:]); err != nil {
			return err
		}
		_, err := tmp.Write(payload)
		return err
	})
	werr := Encode(w, s)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return werr
	}
	return nil
}

// ReadFile loads the snapshot at path. A missing file returns (nil, nil)
// — the boot path treats that as "no snapshot yet". Any torn or corrupt
// file is an error: unlike the replication log, a snapshot has no usable
// prefix.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	r := NewReader()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return nil, fmt.Errorf("snap: %s: truncated snapshot file", path)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		const maxChunk = 16 + MaxChunkItems*itemBytes
		if n < 5 || n > maxChunk {
			return nil, fmt.Errorf("snap: %s: corrupt chunk length %d", path, n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil, fmt.Errorf("snap: %s: truncated snapshot file", path)
		}
		done, err := r.Feed(payload)
		if err != nil {
			return nil, fmt.Errorf("snap: %s: %w", path, err)
		}
		if done {
			return r.Snapshot()
		}
	}
}
