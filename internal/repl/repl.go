// Package repl is the replicated batch log behind rtled's failover story:
// an ordered, append-only log of committed atomic blocks, held in memory
// and optionally mirrored to an append-only file, streamed by a primary to
// its replicas over the rtled/1 protocol extension (internal/server).
//
// The unit of replication is the Entry — the mutating operations of one
// committed atomic block (a coalesced group, a client batch, or a
// cross-shard slow-path block), in execution order. The serving layer
// appends entries while the committing block still holds its shard drain
// gates, so log order equals gate order: replaying entries sequentially
// from genesis reproduces exactly the state the primary served (DESIGN.md
// §9). Reads are never logged — they change nothing and their responses
// are judged by the wire-level checker, not the replica.
//
// The file mirror is an audit and warm-boot convenience, not the
// durability story: rtled's zero-acknowledged-write-loss claim rests on a
// replica having acknowledged the entry before the client saw its
// response (sync ack mode), which survives the primary's disk dying with
// the primary. Each file record is `u32 len | u32 crc32 | payload`; a torn
// tail (a crash mid-append) is detected by length/CRC and dropped on
// load.
package repl

import (
	"encoding/binary"
	"fmt"
)

// Op is one logged operation: the wire op code (internal/check's Op
// values) and its three fixed arguments. The package deliberately stores
// codes as raw bytes rather than importing the server's types, so the
// dependency points one way: the serving layer imports repl, never the
// reverse.
type Op struct {
	Code             uint8
	Arg1, Arg2, Arg3 uint64
}

// Entry is one committed atomic block: a primary-assigned sequence number
// (contiguous from 1) and the block's mutating operations in execution
// order.
type Entry struct {
	Seq uint64
	Ops []Op
}

// MaxOps bounds the operations of one entry, mirroring the serving
// layer's MaxBatchOps so an encoded entry always fits one wire frame.
// Larger committed blocks are chunked into consecutive entries by the
// appender; sequential replay of the chunks is equivalent because nothing
// can observe a replica between entries before promotion.
const MaxOps = 1024

// opBytes is the fixed encoding size of one Op.
const opBytes = 1 + 3*8

// AppendEntryPayload appends e's wire/file encoding to buf:
//
//	u64 seq | u16 n | n x (u8 code | u64 arg1 | u64 arg2 | u64 arg3)
//
// The same bytes serve as a stream-frame payload (the caller adds the
// frame length prefix) and as a file-record payload (the caller adds
// length and CRC).
func AppendEntryPayload(buf []byte, e *Entry) []byte {
	buf = binary.BigEndian.AppendUint64(buf, e.Seq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Ops)))
	for _, op := range e.Ops {
		buf = append(buf, op.Code)
		buf = binary.BigEndian.AppendUint64(buf, op.Arg1)
		buf = binary.BigEndian.AppendUint64(buf, op.Arg2)
		buf = binary.BigEndian.AppendUint64(buf, op.Arg3)
	}
	return buf
}

// DecodeEntryPayload parses one encoded entry. The returned entry's Ops
// slice aliases nothing in p.
func DecodeEntryPayload(p []byte) (Entry, error) {
	var e Entry
	if len(p) < 10 {
		return e, fmt.Errorf("repl: truncated entry payload (%d bytes)", len(p))
	}
	e.Seq = binary.BigEndian.Uint64(p)
	n := int(binary.BigEndian.Uint16(p[8:]))
	if n == 0 || n > MaxOps {
		return e, fmt.Errorf("repl: entry of %d ops outside [1,%d]", n, MaxOps)
	}
	p = p[10:]
	if len(p) != n*opBytes {
		return e, fmt.Errorf("repl: entry body of %d bytes, want %d", len(p), n*opBytes)
	}
	e.Ops = make([]Op, n)
	for i := range e.Ops {
		op := &e.Ops[i]
		op.Code = p[0]
		op.Arg1 = binary.BigEndian.Uint64(p[1:])
		op.Arg2 = binary.BigEndian.Uint64(p[9:])
		op.Arg3 = binary.BigEndian.Uint64(p[17:])
		p = p[opBytes:]
	}
	return e, nil
}

// AppendAckPayload appends a replica's acknowledgement payload — the
// highest contiguous sequence it has appended and applied — to buf.
func AppendAckPayload(buf []byte, seq uint64) []byte {
	return binary.BigEndian.AppendUint64(buf, seq)
}

// DecodeAckPayload parses one acknowledgement payload.
func DecodeAckPayload(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("repl: ack payload of %d bytes, want 8", len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}
