package server

import (
	"context"
	"testing"

	"rtle/internal/check"
)

// roundTrip boots a server with cfg on loopback, dials it, and returns a
// function that issues req through Client.DoInto into a reused result
// scratch and checks the answer — one real round trip through the client's
// send, the server's read loop, admission, section and write, and the
// client's read loop.
func roundTrip(tb testing.TB, cfg Config, req *Request) func() {
	tb.Helper()
	_, addr := startServer(tb, cfg)
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	var res [4]Result
	return func() {
		resp, err := c.DoInto(req, res[:])
		if err != nil {
			tb.Fatal(err)
		}
		if resp.Status != StatusOK {
			tb.Fatalf("%v: status %v %s", req.Op, resp.Status, resp.Message)
		}
	}
}

// burstTrip is roundTrip for a pipelined burst: over a raw connection it
// sends n copies of req in one Write, which the server's read loop admits
// as one coalesced run, and reads the n answers into a reused result
// scratch.
func burstTrip(tb testing.TB, cfg Config, req *Request, n int) func() {
	tb.Helper()
	_, addr := startServer(tb, cfg)
	nc, fr, _, err := handshake(context.Background(), addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = nc.Close() })
	var burst []byte
	for range n {
		burst = AppendRequest(burst, req)
	}
	var res [4]Result
	return func() {
		if _, err := nc.Write(burst); err != nil {
			tb.Fatal(err)
		}
		for range n {
			payload, err := fr.next()
			if err != nil {
				tb.Fatal(err)
			}
			resp, err := DecodeResponseInto(payload, res[:])
			if err != nil {
				tb.Fatal(err)
			}
			if resp.Status != StatusOK {
				tb.Fatalf("%v: status %v %s", req.Op, resp.Status, resp.Message)
			}
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// allocCases are the round trips whose heap allocations are budgeted: each
// row is its op's steady-state count per round trip over both ends of the
// connection. A row with a burst sends that many copies of its request in
// one Write over a raw connection (burstTrip); the others issue one
// request through the Client (roundTrip).
var allocCases = []struct {
	name   string
	cfg    Config
	req    Request
	burst  int
	budget float64
}{
	{"get", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64}, Request{Op: check.OpGet, Arg1: 7}, 0, 0},
	{"put", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64}, Request{Op: check.OpPut, Arg1: 7, Arg2: 42}, 0, 0},
	{"delete", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64}, Request{Op: check.OpDelete, Arg1: 7}, 0, 0},
	// Eight pipelined gets: one coalesced run, one section, one write.
	{"get/pipelined-8", Config{Workload: "map", Method: "TLE", Workers: 1, Coalesce: 8, Keys: 64}, Request{Op: check.OpGet, Arg1: 7}, 8, 0},
	// DecodeRequest allocates a batch's entry slice, which the request
	// owns past the read loop's frame buffer reuse.
	{"batch", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64}, Request{Op: OpBatch, Batch: []BatchEntry{
		{Op: check.OpPut, Arg1: 7, Arg2: 42}, {Op: check.OpGet, Arg1: 7}, {Op: check.OpDelete, Arg1: 9},
	}}, 0, 1},
	// The log retains one entry per replicated block.
	{"put/async-primary", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64, ReplAck: "async"}, Request{Op: check.OpPut, Arg1: 7, Arg2: 42}, 0, 1},
}

// allocTrip builds a row's round trip: a burst over a raw connection, or
// one request through the Client.
func allocTrip(tb testing.TB, cfg Config, req *Request, burst int) func() {
	if burst > 0 {
		return burstTrip(tb, cfg, req, burst)
	}
	return roundTrip(tb, cfg, req)
}

// BenchmarkWireFastPathAllocs reports each budgeted round trip's time and
// allocations.
func BenchmarkWireFastPathAllocs(b *testing.B) {
	for _, tc := range allocCases {
		b.Run(tc.name, func(b *testing.B) {
			req := tc.req
			do := allocTrip(b, tc.cfg, &req, tc.burst)
			do()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do()
			}
		})
	}
}

// TestWireFastPathAllocBudget pins the steady-state heap allocations of a
// real client ↔ server round trip, counted across every
// goroutine of the process: both read loops, the server's section and
// write, and the client's send. A count above a row's budget means an
// allocation crept onto the request path.
func TestWireFastPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			do := allocTrip(t, tc.cfg, &req, tc.burst)
			// Warm up: grow every reused buffer, and take request ids past
			// 255, which the runtime boxes into an interface without
			// allocating.
			for range 300 {
				do()
			}
			if allocs := testing.AllocsPerRun(200, do); allocs > tc.budget {
				t.Errorf("%s round trip allocates %.0f times, want ≤ %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}
