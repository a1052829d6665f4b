package main

import (
	"testing"
	"time"

	"rtle/internal/rng"
	"rtle/internal/server"
)

var timeZero = time.Unix(1_700_000_000, 0)

// fakeClock is the schedule's and the slot's clock; sleeping and serving
// advance it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

// fakeServer answers every request OK after a fixed service time.
type fakeServer struct {
	clock   *fakeClock
	service time.Duration
}

func (f *fakeServer) DoInto(req *server.Request, res []server.Result) (server.Response, error) {
	f.clock.sleep(f.service)
	return server.Response{ID: req.ID, Status: server.StatusOK, Results: res[:1]}, nil
}

func TestOpenLoopSchedule(t *testing.T) {
	clock := &fakeClock{t: timeZero}
	sc := newSchedule(timeZero, 10*time.Millisecond, 1000) // a ticket every millisecond
	sc.now, sc.sleep = clock.now, clock.sleep
	sh := wireShape{getPct: 100}
	s := &slot{
		c: &fakeServer{clock: clock, service: 2 * time.Millisecond}, now: clock.now,
		sh: &sh, r: rng.NewXoshiro256(1),
	}

	// Ticket 0 is due at the start: no wait, and the latency is the
	// service time.
	k, due, ok := sc.take()
	if !ok || k != 0 || !due.Equal(timeZero) {
		t.Fatalf("ticket 0: k=%d due=%v ok=%v", k, due.Sub(timeZero), ok)
	}
	sc.sent(k, due, s.one(due))
	if got := time.Duration(s.lat[0]); got != 2*time.Millisecond {
		t.Errorf("ticket 0 latency %v, want 2ms", got)
	}

	// The response came back at 2 ms, so ticket 1 (due at 1 ms) leaves 1 ms
	// late. Its latency counts from when it was due — 3 ms — not from
	// when it was sent, which would hide the stall behind it.
	k, due, ok = sc.take()
	if !ok || k != 1 || due.Sub(timeZero) != time.Millisecond {
		t.Fatalf("ticket 1: k=%d due=%v ok=%v", k, due.Sub(timeZero), ok)
	}
	sc.sent(k, due, s.one(due))
	if got := time.Duration(s.lat[1]); got != 3*time.Millisecond {
		t.Errorf("ticket 1 latency %v, want 3ms from its due time", got)
	}
	if got := time.Duration(sc.late[1]); got != time.Millisecond {
		t.Errorf("ticket 1 lateness %v, want 1ms", got)
	}
	if sc.late[0] != 0 {
		t.Errorf("ticket 0 lateness %v, want none", time.Duration(sc.late[0]))
	}

	// Let the generator go idle: the clock stands at 4 ms, ticket 9 is due
	// at 9 ms, so take sleeps exactly until then.
	for i := 2; i < 9; i++ {
		sc.next.Add(1)
	}
	k, due, ok = sc.take()
	if !ok || k != 9 || !clock.t.Equal(due) || due.Sub(timeZero) != 9*time.Millisecond {
		t.Fatalf("ticket 9: k=%d due=%v clock=%v ok=%v", k, due.Sub(timeZero), clock.t.Sub(timeZero), ok)
	}

	// Ticket 10 would be due at the end of the run: the schedule is over.
	if _, _, ok := sc.take(); ok {
		t.Error("a ticket due at the end of the run was handed out")
	}
}

func TestClosedLoopLatencyIsFromSend(t *testing.T) {
	clock := &fakeClock{t: timeZero}
	sh := wireShape{getPct: 100}
	s := &slot{
		c: &fakeServer{clock: clock, service: 5 * time.Millisecond}, now: clock.now,
		sh: &sh, r: rng.NewXoshiro256(1),
	}
	clock.sleep(time.Second) // whatever happened before the send does not count
	s.one(time.Time{})
	if got := time.Duration(s.lat[0]); got != 5*time.Millisecond {
		t.Errorf("closed-loop latency %v, want 5ms", got)
	}
	if s.n != 1 || s.ok != 1 {
		t.Errorf("counted %d issued, %d ok; want 1, 1", s.n, s.ok)
	}
}
