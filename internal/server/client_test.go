package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"rtle/internal/check"
)

// TestDialContextCanceled checks a dead context fails the dial instead of
// hanging in the hello exchange.
func TestDialContextCanceled(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, addr); err == nil {
		t.Fatal("DialContext with a canceled context succeeded")
	}
}

// TestCloseContextDrains checks the graceful close: requests in flight
// when CloseContext starts still get their responses, requests issued
// after it starts are refused, and the connection ends closed.
func TestCloseContextDrains(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}

	// Keep a stream of requests in flight while the drain begins.
	results := make(chan error, 64)
	for i := 0; i < 16; i++ {
		go func(k uint64) {
			_, err := c.Op(check.OpPut, k, k, 0)
			results <- err
		}(uint64(i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.CloseContext(ctx); err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
	for i := 0; i < 16; i++ {
		// Each request either completed before the drain finished or was
		// refused by the closing/closed client — never stranded.
		if err := <-results; err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("in-flight request failed oddly: %v", err)
		}
	}
	if _, err := c.Op(check.OpGet, 1, 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("request after CloseContext returned %v, want ErrClosed", err)
	}
}

// TestCloseContextExpiredDeadline checks an already-expired drain bound
// still force-closes and reports the context error.
func TestCloseContextExpiredDeadline(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.CloseContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CloseContext with dead context returned %v, want context.Canceled", err)
	}
	if _, err := c.Op(check.OpGet, 1, 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("request after forced close returned %v, want ErrClosed", err)
	}
}
