package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"rtle/internal/core"
	"rtle/internal/fault"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/obs"
)

// liveRegistry runs a short fault-injected TLE workload observed by a fresh
// registry, so the scrape endpoints have real counters — including injected
// faults — to serve.
func liveRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry(obs.Config{})
	policy := core.Policy{Attempts: 5, Observer: reg}
	d := fault.NewDirector(fault.Plan{Seed: 7, BeginProb: 0.2, Reason: htm.Spurious})
	d.Configure(&policy)
	m := mem.New(1 << 12)
	meth, err := harness.BuildMethod("TLE", m, policy)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	th := meth.NewThread()
	for i := 0; i < 400; i++ {
		th.Atomic(func(c core.Context) { c.Write(a, c.Read(a)+1) })
	}
	if d.TotalInjected() == 0 {
		t.Fatal("setup workload injected no faults")
	}
	return reg
}

func TestMetricsEndpoint(t *testing.T) {
	mux := newMux(liveRegistry(t))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))

	if w.Code != 200 {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body := w.Body.String()
	for _, family := range []string{
		"rtle_ops_total",
		"rtle_commits_total",
		"rtle_attempts_total",
		"rtle_aborts_total",
		"rtle_injected_faults_total",
		"rtle_threads",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("GET /metrics: missing family %s", family)
		}
	}
	// The injected-fault breakdown must carry the actual injections, not
	// just the family header.
	if !strings.Contains(body, `rtle_injected_faults_total{reason="spurious"}`) {
		t.Error("GET /metrics: no per-reason injected-fault sample")
	}
	if strings.Contains(body, `rtle_injected_faults_total{reason="spurious"} 0`) {
		t.Error("GET /metrics: injected spurious count stayed zero")
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	mux := newMux(liveRegistry(t))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/snapshot", nil))

	if w.Code != 200 {
		t.Fatalf("GET /snapshot: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET /snapshot: Content-Type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("GET /snapshot: invalid JSON: %v", err)
	}
	if snap.Stats.Ops != 400 {
		t.Errorf("snapshot Ops = %d, want 400", snap.Stats.Ops)
	}
	if snap.Threads != 1 {
		t.Errorf("snapshot Threads = %d, want 1", snap.Threads)
	}
	var injected uint64
	for i := 0; i < htm.NumReasons; i++ {
		injected += snap.Stats.InjectedAborts[i]
	}
	if injected == 0 {
		t.Error("snapshot carries no injected-fault counts")
	}
}

func TestMuxUnknownPath(t *testing.T) {
	mux := newMux(obs.NewRegistry(obs.Config{}))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/nope", nil))
	if w.Code != 404 {
		t.Fatalf("GET /nope: status %d, want 404", w.Code)
	}
}

// TestCheckFlags: the defaults and the edges of each range pass, and every
// value the workload cannot run is refused with a message naming its flag.
func TestCheckFlags(t *testing.T) {
	type flags struct {
		keyRange                  uint64
		threads, inserts, removes int
		format                    string
	}
	ok := flags{8192, 4, 20, 20, "prom"}
	for _, f := range []flags{ok, {1, 1, 0, 0, "json"}, {8192, 4, 100, 0, "prom"}, {8192, 4, 0, 100, "prom"}} {
		if err := checkFlags(f.keyRange, f.threads, f.inserts, f.removes, f.format); err != nil {
			t.Errorf("%+v refused: %v", f, err)
		}
	}
	for _, tc := range []struct {
		flag string
		f    flags
	}{
		{"keyrange", flags{0, 4, 20, 20, "prom"}},
		{"threads", flags{8192, 0, 20, 20, "prom"}},
		{"threads", flags{8192, -1, 20, 20, "prom"}},
		{"inserts", flags{8192, 4, -50, 20, "prom"}},
		{"removes", flags{8192, 4, 20, -1, "prom"}},
		{"inserts + removes", flags{8192, 4, 60, 50, "prom"}},
		{"inserts + removes", flags{8192, 4, 101, 0, "prom"}},
		{"format", flags{8192, 4, 20, 20, "csv"}},
	} {
		err := checkFlags(tc.f.keyRange, tc.f.threads, tc.f.inserts, tc.f.removes, tc.f.format)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%+v: error %v, want one naming %s", tc.f, err, tc.flag)
		}
	}
}
