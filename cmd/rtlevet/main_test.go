package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rtle/internal/analysis"
	"rtle/internal/analysis/framework"
)

// buildTool compiles the rtlevet binary into a test temp dir so the
// unitchecker protocol can be exercised against the real executable.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rtlevet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestVersionProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	// cmd/go keys the vet cache on "<name> version <fingerprint>".
	if !strings.HasPrefix(string(out), "rtlevet version ") {
		t.Errorf("-V=full output %q does not start with \"rtlevet version \"", out)
	}
}

func TestFlagsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output is not valid JSON: %v\n%s", err, out)
	}
	got := map[string]bool{}
	for _, f := range flags {
		if !f.Bool {
			t.Errorf("flag %s not declared Bool; go vet would pass it a value", f.Name)
		}
		got[f.Name] = true
	}
	want := map[string]bool{"unusedignores": true}
	for _, a := range analysis.Analyzers() {
		want[a.Name] = true
		if !got[a.Name] {
			t.Errorf("-flags output missing analyzer flag %s", a.Name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("-flags output has %s, which is neither a registered pass nor -unusedignores", name)
		}
	}
}

// TestVetToolCleanOnCore runs the built binary through the real cmd/go vet
// driver over an annotated production package and requires a clean exit.
func TestVetToolCleanOnCore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes go vet")
	}
	bin := buildTool(t)
	root, err := framework.ModuleRoot("")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./internal/core/...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool over ./internal/core/... failed: %v\n%s", err, out)
	}
}
