package server

import (
	"net"
	"sync"
)

// Output-queue bounds. One flush hands at most maxWriteBatchFrames frames to
// a single writev; while a flush is running, a sender waits once
// maxQueuedFrames frames are queued behind it, so a peer that stops reading
// holds a bounded number of frames and parks only the goroutines sending to
// it.
const (
	maxWriteBatchFrames = 256
	maxQueuedFrames     = 64
)

// conn is one client connection: its socket, the read loop's burst state,
// and the output queue every frame leaves through — responses, hellos,
// rejections, snapshot chunks and replication entries alike. Every frame
// queued MUST come from getFrame; whoever flushes it recycles it.
type conn struct {
	nc net.Conn
	m  *Metrics
	// features holds the client hello's declared feature bits, written by
	// hello and read only from the read loop (subscriber bootstrap checks
	// FeatureSnapshot).
	features uint32
	// tasks counts this connection's accepted-but-unreleased requests; the
	// teardown closes the socket only once it drains.
	tasks sync.WaitGroup

	// The read loop's burst state, touched by its goroutine alone: the run
	// being admitted, one coalesced group's scratch, the answers of the runs
	// executed since the burst began (staged, still counted in tasks) and
	// the highest sync barrier among their blocks. endBurst hands the staged
	// answers to the output queue.
	run    affRun
	group  []*task
	staged []*frameBuf
	bar    uint64

	// The output queue: pending frames in send order, flushed by whichever
	// goroutine finds no flush running. spare is the flusher's second list,
	// swapped in while it writes the first. dead means a write failed: later
	// frames are recycled unsent.
	mu       sync.Mutex
	cond     sync.Cond // on mu: a flush took the list or finished
	pending  []*frameBuf
	spare    []*frameBuf
	flushing bool
	dead     bool
	bufs     net.Buffers // iovec backing array, reused by every flush
	// view is the iovec handed to writeBuffers, boxed for the connection's
	// life: net.Buffers.WriteTo consumes it in place through an interface,
	// so a per-flush &view would escape — one allocation per writev.
	view *net.Buffers
}

// newConn builds a connection and the scratch it keeps for its whole life.
// Runs once per accept: cold by construction.
//
//rtle:coldpath
func newConn(nc net.Conn, m *Metrics, coalesce int) *conn {
	c := &conn{
		nc:      nc,
		m:       m,
		group:   make([]*task, 0, coalesce),
		pending: make([]*frameBuf, 0, maxQueuedFrames),
		spare:   make([]*frameBuf, 0, maxQueuedFrames),
		bufs:    make(net.Buffers, maxWriteBatchFrames),
		view:    new(net.Buffers),
	}
	c.cond.L = &c.mu
	return c
}

// queue appends frames to the output queue in order; ownership passes to
// whichever goroutine flushes them. While a flush is running, a sender
// waits for room once maxQueuedFrames frames are queued behind it. On a
// dead connection the frames are recycled at once.
//
//rtle:hotpath
func (c *conn) queue(fs ...*frameBuf) {
	c.mu.Lock()
	for len(fs) > 0 {
		if c.dead {
			for _, f := range fs {
				putFrame(f)
			}
			break
		}
		room := len(fs)
		if c.flushing {
			room = min(room, maxQueuedFrames-len(c.pending))
			if room <= 0 {
				c.cond.Wait()
				continue
			}
		}
		c.pending = append(c.pending, fs[:room]...)
		fs = fs[room:]
	}
	c.mu.Unlock()
}

// flush writes the output queue unless a flush is already running. The
// first goroutine to find none becomes the flusher: it takes the whole
// list, writes it, recycles the frames, and loops until the list is empty,
// so a frame queued during its flush is written before it clears flushing.
// Everyone else returns at once.
//
//rtle:hotpath
func (c *conn) flush() {
	c.mu.Lock()
	if c.flushing {
		c.mu.Unlock()
		return
	}
	c.flushing = true
	for len(c.pending) > 0 {
		batch := c.pending
		c.pending = c.spare[:0]
		c.cond.Broadcast() // room again for senders waiting behind this flush
		dead := c.dead
		c.mu.Unlock()
		if !dead {
			dead = !c.write(batch)
		}
		for i, f := range batch {
			putFrame(f)
			batch[i] = nil
		}
		c.mu.Lock()
		c.dead = c.dead || dead
		c.spare = batch[:0]
	}
	c.flushing = false
	c.cond.Broadcast()
	c.mu.Unlock()
}

// write sends batch to the socket in vectored chunks of at most
// maxWriteBatchFrames frames, one writev each, and reports whether every
// byte went out.
//
//rtle:hotpath
func (c *conn) write(batch []*frameBuf) bool {
	for len(batch) > 0 {
		n := min(len(batch), maxWriteBatchFrames)
		for i, f := range batch[:n] {
			c.bufs[i] = f.b
		}
		*c.view = c.bufs[:n]
		err := writeBuffers(c.nc, c.view)
		c.m.writeBatchFrames.Observe(int64(n))
		if err != nil {
			return false
		}
		batch = batch[n:]
	}
	return true
}

// send queues one frame and flushes.
//
//rtle:hotpath
func (c *conn) send(f *frameBuf) {
	c.queue(f)
	c.flush()
}

// shut waits out a running flush, then closes the socket: the
// connection's teardown, once nothing it accepted is unanswered — so no
// sender is left to queue behind it.
func (c *conn) shut() {
	c.mu.Lock()
	for c.flushing {
		c.cond.Wait()
	}
	c.mu.Unlock()
	_ = c.nc.Close() // double-close after a hard Close is harmless
}
