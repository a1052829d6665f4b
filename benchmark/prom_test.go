package main

import (
	"os"
	"strings"
	"testing"
)

// testdata/metrics.golden is a /metrics capture from a 2-shard rtled with
// replication on, after 3000 checked operations.
func TestParsePromGolden(t *testing.T) {
	f, err := os.Open("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  float64
		want float64
	}{
		{"unlabelled counter", p.get("rtled_affine_ops_total"), 3000},
		{"one label", p.get("rtled_responses_total", "status", "ok"), 3001},
		{"label value with a dash", p.get("rtled_responses_total", "status", "bad-request"), 0},
		{"two labels", p.get("rtle_aborts_total", "path", "fast", "reason", "capacity"), 10},
		{"merged line of a per-shard family", p.get("rtled_sections_total"), 2512},
		{"one shard", p.get("rtled_sections_total", "shard", "1"), 1279},
		{"shard series summed, merged line left out", p.sumBy("rtled_sections_total", "shard"), 1233 + 1279},
		{"summed over a label of a two-label family", p.sumBy("rtle_aborts_total", "reason"), 10},
		{"histogram count summed over ops", p.sumBy("rtled_request_latency_seconds_count", "op"), 2697 + 88 + 97 + 118},
		{"float value", p.get("rtled_request_latency_seconds_sum", "op", "delete"), 0.0012649},
		{"gauge", p.get("rtled_repl_log_seq"), 298},
		{"absent series", p.get("rtled_no_such_series"), 0},
		{"labels must match exactly", p.get("rtled_sections_total", "shard", "7"), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.what, c.got, c.want)
		}
	}
	if v := p.get("rtled_write_batch_frames_bucket", "le", "+Inf"); v != 1807 {
		t.Errorf("+Inf bucket = %v, want 1807", v)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"rtled_x",                  // no value
		"rtled_x{shard=\"0\" 1",    // unterminated label set
		"rtled_x{shard=\"0} 1",     // unterminated label value
		"rtled_x{shard=0} 1",       // unquoted label value
		"rtled_x{shard=\"0\"} one", // value is not a number
	} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
	p, err := parseProm(strings.NewReader("# HELP x y\n\nx{a=\"q\\\"uote\\\\\"} 2.5e-3\nx NaN\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.get("x", "a", `q"uote\`); v != 0.0025 {
		t.Errorf("escaped label value: got %v, want 0.0025", v)
	}
}
