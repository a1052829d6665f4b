package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtle/internal/analysis/framework"
	"rtle/internal/analysis/loggate"
)

// TestSuiteTeeth proves the serving-discipline pass bites on the real code,
// not just on its golden file: it copies internal/server aside, checks the
// copy analyzes clean, then seeds log appends after the gates drop — on
// the cross-shard and on the fast path, mutants every dynamic test passes
// (DESIGN §5.1, L1 and L2) — and requires loggate to fire on each. If a
// refactor ever neuters a recognizer (renames the gate field, changes the
// append signature), the seeded mutation stops firing and this test fails
// before the discipline silently erodes.
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
	analyze := func() []framework.Diagnostic {
		t.Helper()
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading mutated copy: %v", err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("mutated copy does not type-check: %v", pkg.TypeErrors)
		}
		diags, err := framework.RunAnalyzer(loggate.Analyzer, pkg)
		if err != nil {
			t.Fatalf("running loggate: %v", err)
		}
		return diags
	}

	// Baseline: the verbatim copy must be as clean as the real tree, so
	// any diagnostic below is attributable to the seeded mutation alone.
	if diags := analyze(); len(diags) > 0 {
		t.Fatalf("baseline copy not clean under loggate: %v", diags)
	}

	mutations := []struct {
		name     string
		file     string
		old, new string
		want     string // substring of the expected diagnostic message
	}{
		{
			name: "loggate/append-after-release",
			file: "shard.go",
			old: `	bar := s.replAppendSlow(tp, t.spans, ops)
	tp.unlockSpans(t.spans)`,
			new: `	tp.unlockSpans(t.spans)
	bar := s.replAppendSlow(tp, t.spans, ops)`,
			want: "outside a held gate region",
		},
		{
			name: "loggate/fast-append-after-runlock",
			file: "shard.go",
			old: `		if ops != nil {
			bar = r.append(ops)
			sh.lastSeq.Store(bar)
		} else {
			bar = sh.lastSeq.Load()
		}
		sh.gate.RUnlock()`,
			new: `		sh.gate.RUnlock()
		if ops != nil {
			bar = r.append(ops)
			sh.lastSeq.Store(bar)
		} else {
			bar = sh.lastSeq.Load()
		}`,
			want: "outside a held gate region",
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

			diags := analyze()
			found := false
			for _, d := range diags {
				if strings.Contains(d.Message, m.want) && filepath.Base(d.Pos.Filename) == m.file {
					found = true
				}
			}
			if !found {
				t.Fatalf("loggate did not fire on the seeded violation (want a diagnostic containing %q); got: %v",
					m.want, diags)
			}
		})
	}
}
