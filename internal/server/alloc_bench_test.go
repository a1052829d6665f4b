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

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// allocCases are the round trips whose heap allocations are budgeted: each
// row is its op's steady-state count per request over both ends of the
// connection.
var allocCases = []struct {
	name   string
	cfg    Config
	req    Request
	budget float64
}{
	{"get", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64}, Request{Op: check.OpGet, Arg1: 7}, 0},
	{"put", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64}, Request{Op: check.OpPut, Arg1: 7, Arg2: 42}, 0},
	{"delete", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64}, Request{Op: check.OpDelete, Arg1: 7}, 0},
	// DecodeRequest allocates a batch's entry slice, which the request
	// owns past the read loop's frame buffer reuse.
	{"batch", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64}, Request{Op: OpBatch, Batch: []BatchEntry{
		{Op: check.OpPut, Arg1: 7, Arg2: 42}, {Op: check.OpGet, Arg1: 7}, {Op: check.OpDelete, Arg1: 9},
	}}, 1},
	// The log retains one entry per replicated block.
	{"put/async-primary", Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64, ReplAck: "async"}, Request{Op: check.OpPut, Arg1: 7, Arg2: 42}, 1},
}

// BenchmarkWireFastPathAllocs reports each budgeted round trip's time and
// allocations per request.
func BenchmarkWireFastPathAllocs(b *testing.B) {
	for _, tc := range allocCases {
		b.Run(tc.name, func(b *testing.B) {
			req := tc.req
			do := roundTrip(b, tc.cfg, &req)
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
// real Client ↔ server round trip per request, counted across every
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
			do := roundTrip(t, tc.cfg, &req)
			// Warm up: grow every reused buffer, and take request ids past
			// 255, which the runtime boxes into an interface without
			// allocating.
			for range 300 {
				do()
			}
			if allocs := testing.AllocsPerRun(200, do); allocs > tc.budget {
				t.Errorf("%s round trip allocates %.0f times per request, want ≤ %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}
