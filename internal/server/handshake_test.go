package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"rtle/internal/repl"
)

// scriptedPeer listens on loopback and runs script on each connection it
// accepts, handing it the connection and a frame reader over it. When a
// script returns, every byte its client sent is delivered on the returned
// channel and the connection closes.
func scriptedPeer(t *testing.T, script func(nc net.Conn, fr *frameReader)) (string, <-chan []byte) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	sent := make(chan []byte, 16) // more connections than any test here opens
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				var wire bytes.Buffer
				script(nc, &frameReader{r: bufio.NewReader(io.TeeReader(nc, &wire))})
				select {
				case sent <- wire.Bytes():
				default:
				}
			}()
		}
	}()
	return lis.Addr().String(), sent
}

// entryPoints are the three ways this package opens a client-side
// connection; each returns the error its setup ended in.
var entryPoints = []struct {
	name string
	open func(t *testing.T, addr string) error
}{
	{"DialContext", func(t *testing.T, addr string) error {
		c, err := DialContext(context.Background(), addr)
		if err == nil {
			_ = c.Close()
		}
		return err
	}},
	{"dialPrimary", func(t *testing.T, addr string) error {
		srv, err := New(Config{Workload: "map", Keys: 32, ReplicaOf: addr, Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for i := 0; i < 3; i++ { // a high-water mark of 3: the subscribe asks for 4
			srv.repl.log.Append([]repl.Op{{Code: 1, Arg1: uint64(i)}})
		}
		nc, _, err := srv.dialPrimary(context.Background())
		if err == nil {
			_ = nc.Close()
		}
		return err
	}},
	{"FetchSnapshot", func(t *testing.T, addr string) error {
		_, err := FetchSnapshot(context.Background(), addr)
		return err
	}},
}

// answerOK answers the connection's next request, if one comes before the
// client goes away, with a bare OK — so an entry point that gets past the
// hello keeps going — and ends the script.
func answerOK(nc net.Conn, fr *frameReader) {
	p, err := fr.next()
	if err != nil {
		return
	}
	if req, err := DecodeRequest(p); err == nil {
		_, _ = nc.Write(AppendResponse(nil, &Response{ID: req.ID, Status: StatusOK}))
	}
}

// TestEntryPointsRefuseOtherProtocolVersion: a well-formed server hello that
// announces rtled/2 must end every client-side setup, not just DialContext's
// (the replica stream and the snapshot fetch used to decode it and go on).
func TestEntryPointsRefuseOtherProtocolVersion(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			addr, _ := scriptedPeer(t, func(nc net.Conn, fr *frameReader) {
				if _, err := fr.next(); err != nil {
					return
				}
				_, _ = nc.Write(AppendServerHello(nil, &ServerHello{Version: 2, Shards: 1}))
				answerOK(nc, fr)
			})
			err := ep.open(t, addr)
			if err == nil || !strings.Contains(err.Error(), "rtled/2") {
				t.Fatalf("setup against an rtled/2 server ended in %v, want a version refusal", err)
			}
		})
	}
}

// TestEntryPointsSurfaceHelloRejection: a server that answers the hello with
// a StatusBad response has its message in every entry point's error.
func TestEntryPointsSurfaceHelloRejection(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			addr, _ := scriptedPeer(t, func(nc net.Conn, fr *frameReader) {
				if _, err := fr.next(); err != nil {
					return
				}
				_, _ = nc.Write(AppendResponse(nil, &Response{Status: StatusBad, Message: "no room at the inn"}))
			})
			err := ep.open(t, addr)
			if err == nil || !strings.Contains(err.Error(), "no room at the inn") {
				t.Fatalf("setup ended in %v, want the server's rejection message", err)
			}
		})
	}
}

// TestEntryPointWireBytes pins what each entry point puts on the wire up to
// the answer to its first request: one hello, the same from all three
// (frame length 5, "RTLE", version 1), then for the two dedicated
// connections request id 1, opcode and three arguments.
func TestEntryPointWireBytes(t *testing.T) {
	const hello = "00000005" + "52544c45" + "01"
	want := map[string]string{
		// A pipelined client sends nothing until asked to.
		"DialContext": hello,
		// OpReplSubscribe (102), Arg1 = high-water + 1 = 4.
		"dialPrimary": hello +
			"0000001d" + "00000001" + "66" + "0000000000000004" + "0000000000000000" + "0000000000000000",
		// OpSnapshot (103), no arguments.
		"FetchSnapshot": hello +
			"0000001d" + "00000001" + "67" + "0000000000000000" + "0000000000000000" + "0000000000000000",
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			addr, sent := scriptedPeer(t, func(nc net.Conn, fr *frameReader) {
				if _, err := fr.next(); err != nil {
					return
				}
				_, _ = nc.Write(AppendServerHello(nil, &ServerHello{Version: ProtocolVersion, Shards: 1}))
				answerOK(nc, fr)
			})
			_ = ep.open(t, addr) // the fetch ends in EOF where the chunks should be; only the bytes matter
			select {
			case got := <-sent:
				if hex.EncodeToString(got) != want[ep.name] {
					t.Errorf("wire bytes\n got  %x\n want %s", got, want[ep.name])
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the peer's script never ended")
			}
		})
	}
}

// TestReplicaDialRefusedWithoutReplication: a replica pointed at a server
// that runs without replication fails its dial with that server's own
// reason, given in answer to the subscribe.
func TestReplicaDialRefusedWithoutReplication(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})
	srv, err := New(Config{Workload: "map", Keys: 32, ReplicaOf: addr, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, _, err := srv.dialPrimary(context.Background())
	if err == nil {
		_ = nc.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "replication is not enabled") {
		t.Fatalf("dialPrimary against a server without replication ended in %v, want its refusal", err)
	}
}

// TestReplicaCloseWithSilentPrimary: a primary that accepts the connection
// and then says nothing must not hold Close for the setup deadline. The
// runner has published no connection at that point, so only the context
// handshake runs under can sever its blocked hello read.
func TestReplicaCloseWithSilentPrimary(t *testing.T) {
	accepted := make(chan struct{}, 16)
	addr, _ := scriptedPeer(t, func(nc net.Conn, fr *frameReader) {
		accepted <- struct{}{}
		_, _ = io.Copy(io.Discard, nc) // silent until the replica hangs up
	})
	srv, err := New(Config{Workload: "map", Keys: 32, ReplicaOf: addr, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the replica never dialled its primary")
	}
	start := time.Now()
	_ = srv.Close() // the listener never served; only the wait matters
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Close waited %v on a silent primary", d)
	}
}
