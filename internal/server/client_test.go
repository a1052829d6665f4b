package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"rtle/internal/check"
)

// TestDialOptions covers the functional-option constructor: the hello
// feature mask reaches the server, a zero-option dial still works, and
// both observe the server's negotiation answer.
func TestDialOptions(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})

	c, err := DialContext(context.Background(), addr,
		WithDialTimeout(5*time.Second),
		WithHelloFeatures(1<<7)) // an unknown bit: the server must ignore it
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ServerFeatures()&FeatureSharded == 0 {
		t.Error("server did not advertise FeatureSharded")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// No options: the defaults negotiate the same answer.
	c2, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.ServerShards() != c.ServerShards() {
		t.Errorf("zero-option client saw %d shards, option client %d", c2.ServerShards(), c.ServerShards())
	}
}

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
