package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtle/internal/analysis/framework"
	"rtle/internal/analysis/gateorder"
	"rtle/internal/analysis/hotalloc"
	"rtle/internal/analysis/loggate"
)

// TestSuiteTeeth proves the serving-discipline passes bite on the real
// code, not just on golden files: it copies internal/server aside, checks
// the copy analyzes clean, then seeds one violation per pass — a
// descending gate-acquisition loop, a log append after the gates drop, a
// boxing allocation on the response path — and requires the corresponding
// pass to fire. If a refactor ever neuters a recognizer (renames the gate
// field, changes the append signature), the seeded mutation stops firing
// and this test fails before the discipline silently erodes.
func TestSuiteTeeth(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and repeatedly type-checks internal/server")
	}
	root, err := framework.ModuleRoot("")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}

	dir := t.TempDir()
	src := filepath.Join(root, "internal", "server")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	originals := map[string]string{} // base name -> content
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		originals[name] = string(data)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	loader := framework.NewLoader(root)
	analyze := func(a *framework.Analyzer) []framework.Diagnostic {
		t.Helper()
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading mutated copy: %v", err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("mutated copy does not type-check: %v", pkg.TypeErrors)
		}
		diags, err := framework.RunAnalyzer(a, pkg)
		if err != nil {
			t.Fatalf("running %s: %v", a.Name, err)
		}
		return diags
	}

	// Baseline: the verbatim copy must be as clean as the real tree, so
	// any diagnostic below is attributable to the seeded mutation alone.
	for _, a := range []*framework.Analyzer{gateorder.Analyzer, loggate.Analyzer, hotalloc.Analyzer} {
		if diags := analyze(a); len(diags) > 0 {
			t.Fatalf("baseline copy not clean under %s: %v", a.Name, diags)
		}
	}

	mutations := []struct {
		name     string
		file     string
		old, new string
		analyzer *framework.Analyzer
		want     string // substring of the expected diagnostic message
	}{
		{
			name: "gateorder/descending-acquisition",
			file: "shard.go",
			old: `	for _, k := range spans {
		tp.shards[k].gate.Lock()
	}`,
			new: `	for i := len(spans) - 1; i >= 0; i-- {
		tp.shards[spans[i]].gate.Lock()
	}`,
			analyzer: gateorder.Analyzer,
			want:     "range loop",
		},
		{
			name: "loggate/append-after-release",
			file: "shard.go",
			old: `	bar := s.replAppendSlow(tp, t.spans, ops)
	tp.unlockSpans(t.spans)`,
			new: `	tp.unlockSpans(t.spans)
	bar := s.replAppendSlow(tp, t.spans, ops)`,
			analyzer: loggate.Analyzer,
			want:     "outside a held gate region",
		},
		{
			name: "hotalloc/boxing-on-response-path",
			file: "server.go",
			old:  `	s.metrics.statuses[resp.Status].Add(1)`,
			new: `	trace := fmt.Sprint(resp.ID)
	_ = trace
	s.metrics.statuses[resp.Status].Add(1)`,
			analyzer: hotalloc.Analyzer,
			want:     "boxed into interface",
		},
	}

	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			orig, ok := originals[m.file]
			if !ok {
				t.Fatalf("no copied file %s", m.file)
			}
			if !strings.Contains(orig, m.old) {
				t.Fatalf("%s no longer contains the mutation anchor %q; update the teeth test alongside the refactor", m.file, m.old)
			}
			mutated := strings.Replace(orig, m.old, m.new, 1)
			path := filepath.Join(dir, m.file)
			if err := os.WriteFile(path, []byte(mutated), 0o666); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, []byte(orig), 0o666); err != nil {
					t.Fatal(err)
				}
			}()

			diags := analyze(m.analyzer)
			found := false
			for _, d := range diags {
				if strings.Contains(d.Message, m.want) && filepath.Base(d.Pos.Filename) == m.file {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s did not fire on the seeded violation (want a diagnostic containing %q); got: %v",
					m.analyzer.Name, m.want, diags)
			}
		})
	}
}
