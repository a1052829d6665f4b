// Package server is the network serving layer over the elided data
// structures: a TCP front end that exposes one of the repository's three
// ADTs (AVL set, hash map, bank) behind any of the nine synchronization
// methods, speaking a length-prefixed binary protocol with per-connection
// request pipelining.
//
// # Wire protocol (rtled/1)
//
// Every frame is a big-endian uint32 payload length followed by the
// payload.
//
// # Hello exchange
//
// Before the first request, the client must send one hello frame and wait
// for the server's hello:
//
//	client: "RTLE" | u8 version
//	server: "RTLE" | u8 version | u16 shards
//
// The magic distinguishes a hello from a request payload, so a client that
// opens with a request is rejected with a StatusBad response naming the
// missing hello, and the connection closes. A version the server does not
// speak, or a hello of another length, is answered the same way. The
// server's hello reports its shard count, so clients observe topology
// without a side channel. Every server speaks the whole protocol below;
// what a server cannot serve (a subscription to one without replication)
// it refuses at the request, with its reason.
//
// # Requests
//
// Request payloads are
//
//	u32 id | u8 op | body
//
// where id is an opaque token the response echoes (responses may arrive in
// any order relative to other requests on the connection — pipelining is
// id-matched, not FIFO), and op is either a single-operation code (the
// values of internal/check's Op enum, so wire histories map one-to-one
// onto the linearizability checker's events), OpBatch, or OpPing. A single
// operation's body is three fixed uint64 arguments:
//
//	u64 arg1 | u64 arg2 | u64 arg3
//
// A batch body is a count followed by that many (op, args) entries:
//
//	u16 n | n x (u8 op | u64 arg1 | u64 arg2 | u64 arg3)
//
// The server executes all entries of a batch inside one atomic block — a
// single elided critical section — in entry order. OpPing has an empty
// body and answers with an empty OK; it doubles as a drain probe.
//
// Response payloads are
//
//	u32 id | u8 status | body
//
// StatusOK carries one `u64 ret | u8 ok` result pair for a single
// operation, `u16 n` pairs for a batch, and nothing for a ping. StatusBad,
// StatusShutdown, and StatusNotPrimary carry a `u16 len | bytes` message;
// StatusShutdown means the server is draining and will not accept further
// work, StatusNotPrimary that this server is a replica (the request was
// rejected before execution — retry against the current primary). The
// server refuses nothing for load: a client that outpaces it is slowed by
// TCP on its own connection. Status code 1 is reserved (it was a
// backpressure rejection no server sends any more); a frame carrying it
// decodes as an unknown status.
//
// # Replication stream
//
// A replica opens an ordinary connection to its primary, completes the
// hello, and sends one OpReplSubscribe request whose Arg1 is the first log
// sequence it wants (its own high-water mark plus one). A server without
// replication answers StatusBad. A primary answers StatusOK with no
// results and then repurposes the connection as a one-way log stream:
// every subsequent server-to-client frame is a log entry payload (see
// internal/repl: `u64 seq | u16 n | n x (u8 op | 3 x u64 arg)`), in
// sequence order with no gaps, and every client-to-server frame is an
// acknowledgement payload (`u64 seq`) confirming the replica has durably
// appended and applied through seq. Acks are cumulative; the primary's
// sync ack mode holds client replies until the commit's sequence is acked
// by every live subscriber.
//
// # Snapshot stream
//
// A client sends one OpSnapshot request (arguments zero); the server
// answers StatusOK with no results and then streams a consistent-cut
// snapshot as chunk frames — each payload is an internal/snap chunk
// ("SNAP" magic, header/items/end; see that package) — ending with the
// end chunk, after which the connection resumes ordinary request/response
// service. OpSnapshot must be the only in-flight request on its
// connection while the chunks stream (the chunks carry no request id), so
// snapshot consumers use a dedicated connection.
//
// The same chunks ride the replication stream: a subscriber whose
// requested sequence has been compacted away receives snapshot chunks
// before the entry frames — snapshot-then-log-tail. Chunk frames are
// distinguishable from entry frames by the magic.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"rtle/internal/check"
	"rtle/internal/repl"
)

// ProtocolVersion is the rtled protocol generation this package speaks,
// negotiated by the hello exchange.
const ProtocolVersion = 1

// helloMagic opens every hello payload; no request payload can start with
// it (a request's first four bytes are a client-chosen id, and the decode
// path runs only after the hello completed).
const helloMagic = "RTLE"

// ClientHello is the client's version-negotiation frame.
type ClientHello struct {
	Version uint8
}

// ServerHello is the server's negotiation answer, advertising its shard
// count so clients and load generators can observe topology.
type ServerHello struct {
	Version uint8
	Shards  uint16
}

// AppendClientHello encodes h as one frame appended to buf.
func AppendClientHello(buf []byte, h *ClientHello) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, helloMagic...)
	buf = append(buf, h.Version)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// DecodeClientHello parses a client hello payload. A payload that does not
// carry the hello magic returns an error — the server uses that to reject
// pre-hello clients with a clear message.
func DecodeClientHello(p []byte) (ClientHello, error) {
	var h ClientHello
	if len(p) != 5 || string(p[:4]) != helloMagic {
		return h, fmt.Errorf("server: expected an rtled hello frame (pre-versioning client?)")
	}
	h.Version = p[4]
	return h, nil
}

// AppendServerHello encodes h as one frame appended to buf.
func AppendServerHello(buf []byte, h *ServerHello) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, helloMagic...)
	buf = append(buf, h.Version)
	buf = binary.BigEndian.AppendUint16(buf, h.Shards)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// DecodeServerHello parses a server hello payload.
func DecodeServerHello(p []byte) (ServerHello, error) {
	var h ServerHello
	if len(p) != 7 || string(p[:4]) != helloMagic {
		return h, fmt.Errorf("server: expected an rtled hello answer")
	}
	h.Version = p[4]
	h.Shards = binary.BigEndian.Uint16(p[5:])
	return h, nil
}

// Op is a wire operation code. Single-operation codes share their values
// with internal/check's Op enum; OpBatch and OpPing are wire-only.
type Op = check.Op

// Wire-only operation codes, outside the check.Op range.
const (
	// OpBatch wraps multiple single operations into one atomic block.
	OpBatch Op = 100
	// OpPing executes nothing and answers OK (liveness / drain probe).
	OpPing Op = 101
	// OpReplSubscribe converts the connection into a replication stream:
	// Arg1 is the first wanted log sequence, the OK response is followed by
	// entry frames (server to client) and ack frames (client to server).
	OpReplSubscribe Op = 102
	// OpSnapshot requests one consistent-cut snapshot: the OK response is
	// followed by snapshot chunk frames (internal/snap), after which the
	// connection resumes request/response service. Arguments are zero.
	OpSnapshot Op = 103
)

// Status is a response status code.
type Status uint8

const (
	// StatusOK carries the executed operation's results.
	StatusOK Status = iota
	// Code 1 is reserved (see the package documentation).
	_
	// StatusBad rejects a malformed or out-of-contract request.
	StatusBad
	// StatusShutdown rejects a request because the server is draining.
	StatusShutdown
	// StatusNotPrimary rejects a request, before execution, because the
	// server is a replica; clients should retry against the primary (or
	// wait for this server's promotion).
	StatusNotPrimary
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBad:
		return "bad-request"
	case StatusShutdown:
		return "shutdown"
	case StatusNotPrimary:
		return "not-primary"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// MaxBatchOps bounds the entries of one batch frame: a batch must fit one
// critical section, and an unbounded count would let one frame monopolize
// a section.
const MaxBatchOps = 1024

// maxFrame bounds a frame payload; the largest legal frame is a
// MaxBatchOps response with headroom.
const maxFrame = 32 + MaxBatchOps*32

// BatchEntry is one operation inside a batch request.
type BatchEntry struct {
	Op               Op
	Arg1, Arg2, Arg3 uint64
}

// Request is a decoded request frame. Exactly one of the single-op fields
// or Batch is meaningful, per Op.
type Request struct {
	ID               uint32
	Op               Op
	Arg1, Arg2, Arg3 uint64
	Batch            []BatchEntry
}

// Result is one operation's outcome, mirroring check.Event's response
// fields.
type Result struct {
	Ret uint64
	Ok  bool
}

// Response is a decoded response frame.
type Response struct {
	ID     uint32
	Status Status
	// Results holds one entry for a single operation, len(Batch) entries
	// for a batch, none for a ping (StatusOK only).
	Results []Result
	// Message accompanies StatusBad and StatusShutdown.
	Message string
}

// AppendRequest encodes r as one frame appended to buf.
func AppendRequest(buf []byte, r *Request) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	buf = binary.BigEndian.AppendUint32(buf, r.ID)
	buf = append(buf, byte(r.Op))
	switch r.Op {
	case OpPing:
	case OpBatch:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Batch)))
		for _, e := range r.Batch {
			buf = append(buf, byte(e.Op))
			buf = binary.BigEndian.AppendUint64(buf, e.Arg1)
			buf = binary.BigEndian.AppendUint64(buf, e.Arg2)
			buf = binary.BigEndian.AppendUint64(buf, e.Arg3)
		}
	default:
		buf = binary.BigEndian.AppendUint64(buf, r.Arg1)
		buf = binary.BigEndian.AppendUint64(buf, r.Arg2)
		buf = binary.BigEndian.AppendUint64(buf, r.Arg3)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// AppendResponse encodes r as one frame appended to buf.
func AppendResponse(buf []byte, r *Response) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.BigEndian.AppendUint32(buf, r.ID)
	buf = append(buf, byte(r.Status))
	switch r.Status {
	case StatusOK:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Results)))
		for _, res := range r.Results {
			buf = binary.BigEndian.AppendUint64(buf, res.Ret)
			if res.Ok {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	default:
		msg := r.Message
		if len(msg) > 1<<15 {
			msg = msg[:1<<15]
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(msg)))
		buf = append(buf, msg...)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// AppendReplEntry encodes one log entry as a replication-stream frame
// appended to buf. The largest entry (repl.MaxOps operations) stays under
// maxFrame, so the stream reuses the ordinary frame reader.
func AppendReplEntry(buf []byte, e *repl.Entry) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = repl.AppendEntryPayload(buf, e)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// AppendSnapChunk wraps one snapshot chunk payload (see internal/snap) as
// a stream frame appended to buf. The largest chunk (a full items chunk)
// stays well under maxFrame, so snapshot streams reuse the ordinary frame
// reader; chunk payloads start with the snapshot magic, which no entry or
// response payload can, so receivers demux by snap.IsChunk.
func AppendSnapChunk(buf, chunk []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, chunk...)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// AppendReplAck encodes a cumulative acknowledgement through seq as a
// replication-stream frame appended to buf.
func AppendReplAck(buf []byte, seq uint64) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = repl.AppendAckPayload(buf, seq)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// readFrame reads one length-prefixed payload from r into buf (grown as
// needed), returning the payload slice. The length prefix is read into buf
// too: a local header array escapes through the io.Reader call, one heap
// allocation per frame.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > maxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// frameReader decodes frames from one stream, reusing its buffer.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// errShort is the uniform truncated-payload error.
var errShort = fmt.Errorf("server: truncated frame payload")

// next reads the next raw payload.
func (fr *frameReader) next() ([]byte, error) {
	p, err := readFrame(fr.r, fr.buf)
	if err != nil {
		return nil, err
	}
	fr.buf = p
	return p, nil
}

// ready reports whether a complete frame is already buffered, i.e. whether
// next() would return without touching the socket. The server's read loop
// uses it to decide when a pipelined burst has drained: as long as ready
// holds, admission may keep extending an affinity run, because writing is
// only mandatory before a read that could block. False when the underlying
// reader is not a *bufio.Reader (no lookahead available).
func (fr *frameReader) ready() bool {
	br, ok := fr.r.(*bufio.Reader)
	if !ok {
		return false
	}
	if br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := binary.BigEndian.Uint32(hdr)
	return n <= maxFrame && br.Buffered() >= 4+int(n)
}

// DecodeRequest parses a request payload. The returned request's Batch
// aliases nothing in p.
func DecodeRequest(p []byte) (Request, error) {
	var r Request
	if len(p) < 5 {
		return r, errShort
	}
	r.ID = binary.BigEndian.Uint32(p)
	r.Op = Op(p[4])
	p = p[5:]
	switch r.Op {
	case OpPing:
		return r, nil
	case OpBatch:
		if len(p) < 2 {
			return r, errShort
		}
		n := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if n > MaxBatchOps {
			return r, fmt.Errorf("server: batch of %d ops exceeds the %d-op limit", n, MaxBatchOps)
		}
		if len(p) != n*25 {
			return r, errShort
		}
		r.Batch = make([]BatchEntry, n)
		for i := range r.Batch {
			e := &r.Batch[i]
			e.Op = Op(p[0])
			if e.Op == OpBatch || e.Op == OpPing {
				return r, fmt.Errorf("server: nested %v inside a batch", e.Op)
			}
			e.Arg1 = binary.BigEndian.Uint64(p[1:])
			e.Arg2 = binary.BigEndian.Uint64(p[9:])
			e.Arg3 = binary.BigEndian.Uint64(p[17:])
			p = p[25:]
		}
		return r, nil
	default:
		if len(p) != 24 {
			return r, errShort
		}
		r.Arg1 = binary.BigEndian.Uint64(p)
		r.Arg2 = binary.BigEndian.Uint64(p[8:])
		r.Arg3 = binary.BigEndian.Uint64(p[16:])
		return r, nil
	}
}

// DecodeResponse parses a response payload.
func DecodeResponse(p []byte) (Response, error) {
	return DecodeResponseInto(p, nil)
}

// DecodeResponseInto parses a response payload, decoding an OK response's
// results into res when they fit (the returned Response's Results then
// aliases res). A response carrying more results than res holds — or a nil
// res — falls back to allocating, so the zero-alloc contract is between
// the caller and its own scratch sizing.
func DecodeResponseInto(p []byte, res []Result) (Response, error) {
	var r Response
	if len(p) < 5 {
		return r, errShort
	}
	r.ID = binary.BigEndian.Uint32(p)
	r.Status = Status(p[4])
	p = p[5:]
	switch r.Status {
	case StatusOK:
		if len(p) < 2 {
			return r, errShort
		}
		n := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if len(p) != n*9 {
			return r, errShort
		}
		if n > 0 {
			if n <= len(res) {
				r.Results = res[:n]
			} else {
				r.Results = make([]Result, n)
			}
			for i := range r.Results {
				r.Results[i].Ret = binary.BigEndian.Uint64(p)
				r.Results[i].Ok = p[8] != 0
				p = p[9:]
			}
		}
		return r, nil
	case StatusBad, StatusShutdown, StatusNotPrimary:
		if len(p) < 2 {
			return r, errShort
		}
		n := int(binary.BigEndian.Uint16(p))
		if len(p[2:]) != n {
			return r, errShort
		}
		r.Message = string(p[2 : 2+n])
		return r, nil
	}
	return r, fmt.Errorf("server: unknown response status %d", uint8(r.Status))
}

// IsRead reports whether op never mutates its ADT — the classification the
// server's read-coalescing and RW-TLE's read-only slow path care about.
func IsRead(op Op) bool {
	switch op {
	case check.OpContains, check.OpGet, check.OpBalance:
		return true
	}
	return false
}
