package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"rtle/internal/check"
)

// roundTripRequest encodes r, strips the frame header, and decodes it back.
func roundTripRequest(t *testing.T, r Request) Request {
	t.Helper()
	frame := AppendRequest(nil, &r)
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-4 {
		t.Fatalf("frame length header %d, want %d", got, len(frame)-4)
	}
	dec, err := DecodeRequest(frame[4:])
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return dec
}

// roundTripRequests are the request round-trip cases; the fuzz targets
// seed their corpora from them.
var roundTripRequests = []Request{
	{ID: 1, Op: check.OpInsert, Arg1: 42},
	{ID: 0xfffffffe, Op: check.OpTransfer, Arg1: 3, Arg2: 9, Arg3: 100},
	{ID: 7, Op: OpPing},
	{ID: 9, Op: OpBatch, Batch: []BatchEntry{
		{Op: check.OpContains, Arg1: 5},
		{Op: check.OpGet, Arg1: 6},
		{Op: check.OpBalance, Arg1: 0},
	}},
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range roundTripRequests {
		got := roundTripRequest(t, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %+v -> %+v", want, got)
		}
	}
}

// roundTripResponses are the response round-trip cases; FuzzDecodeResponse
// seeds its corpus from them.
var roundTripResponses = []Response{
	{ID: 1, Status: StatusOK, Results: []Result{{Ret: 7, Ok: true}}},
	{ID: 2, Status: StatusOK}, // ping: no results
	{ID: 3, Status: StatusOK, Results: []Result{{Ret: 1, Ok: false}, {Ret: 2, Ok: true}}},
	{ID: 5, Status: StatusBad, Message: "key 9 outside the served key space [0,8)"},
	{ID: 6, Status: StatusShutdown, Message: "server is draining"},
	{ID: 7, Status: StatusNotPrimary, Message: "server is a replica of 127.0.0.1:7632"},
}

func TestResponseRoundTrip(t *testing.T) {
	for _, want := range roundTripResponses {
		frame := AppendResponse(nil, &want)
		got, err := DecodeResponse(frame[4:])
		if err != nil {
			t.Fatalf("DecodeResponse(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %+v -> %+v", want, got)
		}
	}
	// Code 1 is reserved: no status decodes from it, whatever the body.
	for _, body := range [][]byte{nil, {0, 0, 0, 1, 0, 0, 0, 2}, {0, 0}} {
		p := append([]byte{0, 0, 0, 9, 1}, body...)
		if resp, err := DecodeResponse(p); err == nil {
			t.Errorf("status 1 with a %d-byte body decoded as %+v", len(body), resp)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	short := []byte{0, 0, 0, 1}
	if _, err := DecodeRequest(short); err == nil {
		t.Error("short payload decoded")
	}
	// Truncated single-op body.
	r := Request{ID: 1, Op: check.OpInsert, Arg1: 42}
	frame := AppendRequest(nil, &r)
	if _, err := DecodeRequest(frame[4 : len(frame)-1]); err == nil {
		t.Error("truncated single-op body decoded")
	}
	// Nested batch/ping inside a batch.
	for _, inner := range []Op{OpBatch, OpPing} {
		b := Request{ID: 2, Op: OpBatch, Batch: []BatchEntry{{Op: inner}}}
		frame = AppendRequest(nil, &b)
		if _, err := DecodeRequest(frame[4:]); err == nil {
			t.Errorf("nested %v inside a batch decoded", inner)
		}
	}
	// Oversized batch count.
	big := make([]byte, 7)
	big[4] = byte(OpBatch)
	binary.BigEndian.PutUint16(big[5:], MaxBatchOps+1)
	if _, err := DecodeRequest(big); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized batch count: err = %v", err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Error("oversized frame accepted")
	}
	// A legal frame round-trips through frameReader.
	req := Request{ID: 3, Op: check.OpGet, Arg1: 1}
	fr := frameReader{r: bytes.NewReader(AppendRequest(nil, &req))}
	payload, err := fr.next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	dec, err := DecodeRequest(payload)
	if err != nil || dec.ID != 3 {
		t.Fatalf("decode via frameReader: %+v, %v", dec, err)
	}
}

func TestIsRead(t *testing.T) {
	reads := map[Op]bool{
		check.OpContains: true, check.OpGet: true, check.OpBalance: true,
		check.OpInsert: false, check.OpRemove: false, check.OpPut: false,
		check.OpDelete: false, check.OpAdd: false, check.OpTransfer: false,
		OpBatch: false, OpPing: false,
	}
	for op, want := range reads {
		if IsRead(op) != want {
			t.Errorf("IsRead(%v) = %v, want %v", op, !want, want)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	ch := ClientHello{Version: ProtocolVersion}
	frame := AppendClientHello(nil, &ch)
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-4 {
		t.Fatalf("client hello length header %d, want %d", got, len(frame)-4)
	}
	dch, err := DecodeClientHello(frame[4:])
	if err != nil || dch != ch {
		t.Fatalf("client hello round trip: %+v, %v", dch, err)
	}

	sh := ServerHello{Version: ProtocolVersion, Shards: 4}
	frame = AppendServerHello(nil, &sh)
	dsh, err := DecodeServerHello(frame[4:])
	if err != nil || dsh != sh {
		t.Fatalf("server hello round trip: %+v, %v", dsh, err)
	}

	// A request payload must not decode as a hello: that is how the server
	// tells a pre-versioning client from a negotiating one.
	req := AppendRequest(nil, &Request{ID: 1, Op: check.OpInsert, Arg1: 2})
	if _, err := DecodeClientHello(req[4:]); err == nil {
		t.Error("request payload decoded as a client hello")
	}
}

// rawHelloExchange dials srv's addr raw, writes first, and returns the
// first response frame's payload.
func rawHelloExchange(t *testing.T, addr string, first []byte) ([]byte, *bufio.Reader, net.Conn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	if _, err := nc.Write(first); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	fr := frameReader{r: br}
	payload, err := fr.next()
	if err != nil {
		t.Fatalf("reading hello answer: %v", err)
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, br, nc
}

// TestHelloRejectsOldClient checks the no-flag-day contract: a client that
// opens with a request instead of a hello gets one explanatory StatusBad
// response and a closed connection.
func TestHelloRejectsOldClient(t *testing.T) {
	srv, addr := startServer(t, Config{Workload: "set", Keys: 8})
	first := AppendRequest(nil, &Request{ID: 1, Op: check.OpContains, Arg1: 1})
	payload, br, _ := rawHelloExchange(t, addr, first)
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBad || !strings.Contains(resp.Message, "hello") {
		t.Fatalf("pre-hello request answered %+v, want a bad-request naming the hello", resp)
	}
	// The server hangs up after the rejection.
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection still open after a hello rejection")
	}
	if srv.Metrics().helloRejects.Load() != 1 {
		t.Errorf("hello rejects %d, want 1", srv.Metrics().helloRejects.Load())
	}
}

// TestHelloRejectsWrongVersion checks that an unsupported version is
// refused with a message naming both versions.
func TestHelloRejectsWrongVersion(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "set", Keys: 8})
	first := AppendClientHello(nil, &ClientHello{Version: ProtocolVersion + 1})
	payload, _, _ := rawHelloExchange(t, addr, first)
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBad || !strings.Contains(resp.Message, "version") {
		t.Fatalf("wrong-version hello answered %+v", resp)
	}
}

// TestHelloAdvertisesShards checks the negotiated topology surfaces on the
// client.
func TestHelloAdvertisesShards(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Shards: 4, Keys: 64})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ServerShards() != 4 {
		t.Errorf("client saw %d shards, want 4", c.ServerShards())
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after hello: %v", err)
	}
}

func TestValidateContract(t *testing.T) {
	srv, err := New(Config{Workload: "set", Keys: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.validate(&Request{Op: check.OpInsert, Arg1: 7}); err != nil {
		t.Errorf("in-range insert rejected: %v", err)
	}
	if err := srv.validate(&Request{Op: check.OpInsert, Arg1: 8}); err == nil {
		t.Error("out-of-range key accepted")
	}
	if err := srv.validate(&Request{Op: check.OpGet, Arg1: 1}); err == nil {
		t.Error("map op accepted by set workload")
	}
	if err := srv.validate(&Request{Op: OpBatch}); err == nil {
		t.Error("empty batch accepted")
	}
	if err := srv.validate(&Request{Op: OpBatch, Batch: []BatchEntry{
		{Op: check.OpContains, Arg1: 2}, {Op: check.OpContains, Arg1: 99},
	}}); err == nil {
		t.Error("batch with out-of-range entry accepted")
	}
}

// FuzzDecodeRequest: the request decoder never panics, whatever the
// payload; anything it accepts re-encodes with AppendRequest and decodes
// back equal; and what it allocates is bounded by the batch length the
// payload actually carries (one entry per 25 payload bytes). Every input
// also goes through the two hello decoders, which parse the first frame
// each side of a connection reads: neither panics, and a payload either
// accepts re-encodes to the same bytes.
func FuzzDecodeRequest(f *testing.F) {
	for i := range roundTripRequests {
		f.Add(AppendRequest(nil, &roundTripRequests[i])[4:])
	}
	f.Add(AppendClientHello(nil, &ClientHello{Version: ProtocolVersion})[4:])
	f.Add(AppendServerHello(nil, &ServerHello{Version: ProtocolVersion, Shards: 4})[4:])
	f.Fuzz(func(t *testing.T, p []byte) {
		if ch, err := DecodeClientHello(p); err == nil {
			if frame := AppendClientHello(nil, &ch); !bytes.Equal(frame[4:], p) {
				t.Fatalf("client hello %x re-encodes as %x", p, frame[4:])
			}
		}
		if sh, err := DecodeServerHello(p); err == nil {
			if frame := AppendServerHello(nil, &sh); !bytes.Equal(frame[4:], p) {
				t.Fatalf("server hello %x re-encodes as %x", p, frame[4:])
			}
		}
		req, err := DecodeRequest(p)
		if err != nil {
			return
		}
		if cap(req.Batch) > len(p)/25 {
			t.Fatalf("a %d-byte payload decoded into a batch of capacity %d", len(p), cap(req.Batch))
		}
		frame := AppendRequest(nil, &req)
		again, err := DecodeRequest(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", req, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip %+v -> %+v", req, again)
		}
	})
}

// FuzzDecodeResponse: the response decoder never panics, whatever the
// payload, and anything it accepts re-encodes with AppendResponse and
// decodes back equal — except a message longer than the 32 KiB that
// AppendResponse keeps, which comes back cut to that length.
func FuzzDecodeResponse(f *testing.F) {
	for i := range roundTripResponses {
		f.Add(AppendResponse(nil, &roundTripResponses[i])[4:])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		resp, err := DecodeResponse(p)
		if err != nil {
			return
		}
		frame := AppendResponse(nil, &resp)
		again, err := DecodeResponse(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", resp, err)
		}
		if len(resp.Message) > 1<<15 {
			if again.Message != resp.Message[:1<<15] {
				t.Fatalf("a %d-byte message came back as %d bytes, want the first %d", len(resp.Message), len(again.Message), 1<<15)
			}
			resp.Message = again.Message
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("round trip %+v -> %+v", resp, again)
		}
	})
}

// chunkReader hands out its bytes at most n per Read, so frames arrive
// split at arbitrary points.
type chunkReader struct {
	b []byte
	n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.n, len(r.b))
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// FuzzReadFrame drives frameReader (readFrame and the ready lookahead) over
// arbitrary streams delivered in arbitrary splits: it never panics, never
// returns a payload longer than the frame limit, returns exactly the bytes
// each header announced in stream order, and whenever ready promised a
// buffered frame, next delivers it.
func FuzzReadFrame(f *testing.F) {
	var stream []byte
	for i := range roundTripRequests {
		frame := AppendRequest(nil, &roundTripRequests[i])
		f.Add(frame, uint8(255))
		f.Add(frame[:len(frame)-1], uint8(3)) // short: the body is cut off
		stream = append(stream, frame...)
	}
	f.Add(stream, uint8(1)) // every frame split byte by byte
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], maxFrame+1)
	f.Add(append(huge[:], stream...), uint8(7)) // oversized header first
	// An empty frame first: the next header lands in a zero-length buffer.
	f.Add(append([]byte{0, 0, 0, 0}, stream...), uint8(255))
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		fr := frameReader{r: bufio.NewReaderSize(&chunkReader{b: stream, n: int(chunk) + 1}, 64)}
		off := 0
		for {
			ready := fr.ready()
			payload, err := fr.next()
			if err != nil {
				if ready {
					t.Fatalf("ready promised a frame at offset %d, next failed: %v", off, err)
				}
				return
			}
			if len(payload) > maxFrame {
				t.Fatalf("payload of %d bytes exceeds the %d-byte limit", len(payload), maxFrame)
			}
			n := int(binary.BigEndian.Uint32(stream[off:]))
			if n != len(payload) || !bytes.Equal(payload, stream[off+4:off+4+n]) {
				t.Fatalf("frame at offset %d: got %d bytes, the header announced %d", off, len(payload), n)
			}
			off += 4 + n
		}
	})
}
