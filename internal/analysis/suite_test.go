package analysis_test

import (
	"testing"

	"rtle/internal/analysis"
	"rtle/internal/analysis/framework"
)

// TestRepoIsClean is the one way the static checks run: the whole suite
// over the real tree, requiring zero diagnostics. Deliberate exceptions in
// the tree must carry //rtle:ignore pragmas, so a failure here means
// either a new violation or an undocumented exception.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := framework.ModuleRoot("")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	loader := framework.NewLoader(root)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading ./...: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; expected the whole tree", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.PkgPath, terr)
		}
	}
	diags, err := framework.RunAnalyzers(analysis.Analyzers(), pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	// Every //rtle:ignore in the tree must still excuse a live finding.
	// The full suite just ran, so a pragma that suppressed nothing is
	// provably stale — the finding it excused was fixed, it never matched,
	// or the pass it names is gone. Stale waivers are how real violations
	// hide.
	for _, d := range framework.UnusedIgnores(pkgs) {
		t.Errorf("stale waiver: %s", d)
	}
}
