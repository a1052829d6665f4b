package server

import "net"

// maxRetainedOut bounds the output buffer a connection keeps between
// writes. One that grew past it (a huge batch response, a snapshot items
// chunk) is dropped after its write instead of pinning its capacity for
// the connection's life; the common single-op answer is ~20 bytes.
const maxRetainedOut = 1 << 14

// conn is one client connection: its socket, the read loop's burst state,
// and the output buffer every frame leaves through — responses, hellos,
// rejections, snapshot chunks and replication entries alike. Exactly one
// goroutine owns a connection at a time: its reader, or, once a subscriber
// connection turned into a replication stream, the streamer until the
// reader has waited it out. Only the owner touches the burst state and
// out, so nothing here is synchronized.
type conn struct {
	nc net.Conn
	m  *Metrics

	// The read loop's burst state: the run being admitted (its task slice
	// reused for every run), the number of tasks answered since the burst
	// began (still counted in tasksWG) and the highest sync barrier among
	// their blocks. endBurst writes the answers and releases the count.
	run      affRun
	answered int
	bar      uint64

	// out holds the encoded frames not yet written, in send order, and
	// frames counts them; write sends them in one Write.
	out    []byte
	frames int
}

// newConn builds a connection and the scratch it keeps for its whole life.
// Runs once per accept: cold by construction.
func newConn(nc net.Conn, m *Metrics, coalesce int) *conn {
	return &conn{
		nc:  nc,
		m:   m,
		run: affRun{tasks: make([]task, 0, coalesce)},
		out: make([]byte, 0, 512),
	}
}

// write sends every staged frame in one Write — a Write on a TCP socket
// returns only once every byte is out or the socket failed — and empties
// the buffer. A failed write closes the socket, so the reader's next read
// ends the connection instead of executing requests whose answers go
// nowhere.
func (c *conn) write() {
	if c.frames == 0 {
		return
	}
	if _, err := c.nc.Write(c.out); err != nil {
		_ = c.nc.Close() // the failure that matters is the write's; the reader sees the close
	}
	c.m.writeBatchFrames.Observe(int64(c.frames))
	c.frames = 0
	c.out = c.out[:0]
	if cap(c.out) > maxRetainedOut {
		c.out = nil
	}
}
