package harness

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtle/internal/obs"
)

// TestSamplerDisabledConfigs: every disabling combination must return nil,
// and a nil Sampler's Stop must be a no-op.
func TestSamplerDisabledConfigs(t *testing.T) {
	reg := obs.NewRegistry(obs.Config{})
	var buf bytes.Buffer
	cases := []SampleConfig{
		{},
		{Registry: reg, Interval: time.Millisecond},           // no writer
		{Registry: reg, W: &buf},                              // no interval
		{Interval: time.Millisecond, W: &buf},                 // no registry
		{Registry: reg, Interval: -time.Millisecond, W: &buf}, // negative interval
	}
	for i, cfg := range cases {
		if s := StartSampler(cfg); s != nil {
			s.Stop()
			t.Errorf("case %d: disabled config started a sampler", i)
		}
	}
	var s *Sampler
	s.Stop() // must not panic
}

// TestSamplerEmitsRows: a running sampler emits the CSV header plus at
// least the final row on Stop, covering the whole window, each row led by
// its whole-millisecond offset.
func TestSamplerEmitsRows(t *testing.T) {
	reg := obs.NewRegistry(obs.Config{})
	var buf bytes.Buffer
	s := StartSampler(SampleConfig{
		Registry: reg,
		Interval: 5 * time.Millisecond,
		W:        &buf,
	})
	if s == nil {
		t.Fatal("enabled config returned nil sampler")
	}
	time.Sleep(12 * time.Millisecond)
	s.Stop()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("sampler emitted %d lines, want header plus at least one row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_ms,ops,") {
		t.Errorf("missing CSV header, got %q", lines[0])
	}
	for _, row := range lines[1:] {
		if n := strings.Count(row, ","); n != 9 {
			t.Errorf("row %q has %d commas, want 9", row, n)
		}
		if _, err := strconv.ParseInt(strings.Split(row, ",")[0], 10, 64); err != nil {
			t.Errorf("row %q does not start with t_ms: %v", row, err)
		}
	}
}

// TestSamplerStopIsFinal: Stop flushes a final partial-interval row even
// when the interval never elapsed, and the goroutine is gone afterwards.
func TestSamplerStopIsFinal(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry(obs.Config{})
	var buf bytes.Buffer
	s := StartSampler(SampleConfig{
		Registry: reg,
		Interval: time.Hour, // never ticks; only Stop emits
		W:        &buf,
	})
	s.Stop()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header plus exactly the final row", len(lines))
	}

	// The sampler goroutine must have exited. NumGoroutine is noisy
	// (test runner helpers come and go), so poll briefly instead of
	// asserting an exact count once.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after Stop", before, after)
	}
}
