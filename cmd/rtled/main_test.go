package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rtle/internal/obs"
	"rtle/internal/server"
)

// TestAdminMux drives the admin handler of a replica that never listens:
// its ReplicaOf names a closed port, so nothing follows it, and POST
// /promote is what makes it primary.
func TestAdminMux(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := lis.Addr().String()
	lis.Close()
	srv, err := server.New(server.Config{Workload: "map", Keys: 32, ReplicaOf: closed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mux := newMux(obs.NewRegistry(obs.Config{}), srv)
	do := func(method, target string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(method, target, nil))
		return w
	}
	role := func() string {
		w := do(http.MethodGet, "/metrics")
		for _, line := range strings.Split(w.Body.String(), "\n") {
			if strings.HasPrefix(line, "rtled_repl_role{") {
				return line
			}
		}
		t.Fatalf("/metrics has no rtled_repl_role series:\n%s", w.Body)
		return ""
	}

	if got := role(); got != `rtled_repl_role{role="replica"} 1` {
		t.Fatalf("before promotion: %s", got)
	}
	for _, c := range []struct {
		method, target string
		want           int
	}{
		{http.MethodGet, "/promote", http.StatusMethodNotAllowed},
		{http.MethodPost, "/promote", http.StatusOK},
		{http.MethodPost, "/promote", http.StatusConflict}, // already primary
		{http.MethodPost, "/reshard?shards=0", http.StatusBadRequest},
		{http.MethodPost, "/reshard?shards=2", http.StatusOK}, // a replica refuses
		{http.MethodPost, "/compact", http.StatusConflict},    // no SnapFile
	} {
		if w := do(c.method, c.target); w.Code != c.want {
			t.Errorf("%s %s: status %d (%q), want %d", c.method, c.target, w.Code, w.Body, c.want)
		}
	}
	if got := role(); got != `rtled_repl_role{role="primary"} 0` {
		t.Fatalf("after POST /promote: %s", got)
	}
}
