package framework

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"
)

// checkSource parses and type-checks one source file that imports only the
// standard library.
func checkSource(t *testing.T, filename, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg := &Package{
		PkgPath: "rtle/testdata/" + file.Name.Name,
		Module:  "rtle",
		Fset:    fset,
		Files:   []*ast.File{file},
		TypesInfo: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", nil),
		Error:    func(err error) { t.Fatalf("type check: %v", err) },
	}
	pkg.Types, _ = conf.Check(pkg.PkgPath, fset, pkg.Files, pkg.TypesInfo)
	return pkg
}

const annotatedSrc = `package p

//rtle:engine

// run executes inside a hardware transaction.
//
//rtle:speculative
func run() {}

//rtle:init
func setup() {}

// appendLocked's callers hold the gates; the mark survives a //go:
// directive stacked below it in the same doc group.
//
//rtle:gated
//go:noinline
func appendLocked() {}

func unmarked() {}
`

func TestParseAnnotations(t *testing.T) {
	pkg := checkSource(t, "p.go", annotatedSrc)
	ann := ParseAnnotations(pkg.Fset, pkg.Files, pkg.TypesInfo)

	if !ann.Engine {
		t.Errorf("Engine = false, want true")
	}
	scope := pkg.Types.Scope()
	for name, want := range map[string]Marks{
		"run":          MarkSpeculative,
		"setup":        MarkInit,
		"appendLocked": MarkGated,
		"unmarked":     0,
	} {
		if got := ann.FuncMarks(scope.Lookup(name).(*types.Func)); got != want {
			t.Errorf("%s marks = %b, want %b", name, got, want)
		}
	}
}

const suppressSrc = `package p

func a() {}
func b() {}
func c() {}
func d() {}
func e() {}

func calls() {
	a()
	//rtle:ignore fake covered by the standalone pragma above the next line
	b()
	c() //rtle:ignore fake trailing pragma covers its own line
	e()
	//rtle:ignore other a different analyzer's pragma does not apply
	d()
}
`

// TestReportSuppression drives Pass.Report through a fake analyzer and
// checks which //rtle:ignore shapes silence it.
func TestReportSuppression(t *testing.T) {
	fake := &Analyzer{
		Name: "fake",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						pass.Report(call.Pos(), "call flagged")
					}
					return true
				})
			}
			return nil
		},
	}
	pkg := checkSource(t, "p.go", suppressSrc)
	diags, err := RunAnalyzer(fake, pkg)
	if err != nil {
		t.Fatalf("RunAnalyzer: %v", err)
	}
	var lines []int
	for _, d := range diags {
		lines = append(lines, d.Pos.Line)
	}
	// a() on line 10 (unprotected), e() on line 14 (the pragma trailing
	// c() above it covers c()'s line only) and d() on line 16 (pragma names
	// another analyzer) must survive; b() and c() are suppressed.
	if want := []int{10, 14, 16}; !slices.Equal(lines, want) {
		t.Fatalf("diagnostic lines = %v, want %v", lines, want)
	}
}

// TestRunAnalyzerSkipsTestFiles checks the framework-level _test.go
// exemption: the discipline binds production paths only.
func TestRunAnalyzerSkipsTestFiles(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return f
	}
	files := []*ast.File{
		parse("p.go", "package p\n\nfunc a() {}\n"),
		parse("p_test.go", "package p\n\nfunc helper() { a() }\n"),
	}
	pkg := &Package{
		PkgPath: "rtle/testdata/p", Module: "rtle", Fset: fset, Files: files,
		TypesInfo: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	conf := types.Config{Error: func(error) {}}
	pkg.Types, _ = conf.Check(pkg.PkgPath, fset, files, pkg.TypesInfo)

	fake := &Analyzer{
		Name: "fake",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						pass.Report(call.Pos(), "call flagged")
					}
					return true
				})
			}
			return nil
		},
	}
	diags, err := RunAnalyzer(fake, pkg)
	if err != nil {
		t.Fatalf("RunAnalyzer: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("got %d diagnostics from a call that only exists in _test.go, want 0: %v", len(diags), diags)
	}
}

const adjacentSrc = `package p

var a, b, c, d int

func f() {
	a = 1 // same-line comment
	// the line above this assignment
	b = 2
	c = 3
	d = 4 // want "only an expectation"
}
`

func TestHasAdjacentComment(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", adjacentSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	byLine := map[int]token.Pos{}
	ast.Inspect(file, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			byLine[fset.Position(as.Pos()).Line] = as.Pos()
		}
		return true
	})
	for line, want := range map[int]bool{6: true, 8: true, 9: false, 10: false} {
		pos, ok := byLine[line]
		if !ok {
			t.Fatalf("no assignment found on line %d", line)
		}
		if got := HasAdjacentComment(fset, file, pos); got != want {
			t.Errorf("HasAdjacentComment(line %d) = %v, want %v", line, got, want)
		}
	}
}

const edgeSrc = `package p

type State struct{ n uint64 }

// Mark's receiver type is parenthesized: grouping must not hide the
// method from the annotation walk.
//
//rtle:gated
func (s *(State)) Mark() { s.n++ }
`

// TestParseAnnotationsEdgeCases pins a shape that once silently lost marks
// in prototype parsers: a parenthesized (grouped) receiver type. (A mark
// stacked above a //go: directive is in annotatedSrc.)
func TestParseAnnotationsEdgeCases(t *testing.T) {
	pkg := checkSource(t, "p.go", edgeSrc)
	ann := ParseAnnotations(pkg.Fset, pkg.Files, pkg.TypesInfo)
	named := pkg.Types.Scope().Lookup("State").Type()
	var method *types.Func
	for ms, i := types.NewMethodSet(types.NewPointer(named)), 0; i < ms.Len(); i++ {
		if fn := ms.At(i).Obj().(*types.Func); fn.Name() == "Mark" {
			method = fn
		}
	}
	if method == nil {
		t.Fatal("method Mark not found on *State")
	}
	if m := ann.FuncMarks(method); !m.Has(MarkGated) {
		t.Errorf("FuncMarks((*(State)).Mark) = %b, want gated: grouped receiver dropped the mark", m)
	}
}

// TestAnnotationsSkipTestFiles checks that Package.Annotations ignores
// marks and waivers living in _test.go files: test scaffolding cannot
// grant the production tree exemptions.
func TestAnnotationsSkipTestFiles(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return f
	}
	files := []*ast.File{
		parse("p.go", "package p\n\nfunc a() {}\n"),
		parse("p_test.go", "package p\n\n//rtle:gated\nfunc helper() {}\n"),
	}
	pkg := &Package{
		PkgPath: "rtle/testdata/p", Module: "rtle", Fset: fset, Files: files,
		TypesInfo: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	conf := types.Config{Error: func(error) {}}
	pkg.Types, _ = conf.Check(pkg.PkgPath, fset, files, pkg.TypesInfo)

	ann := pkg.Annotations()
	scope := pkg.Types.Scope()
	if fn, ok := scope.Lookup("helper").(*types.Func); ok {
		if m := ann.FuncMarks(fn); m != 0 {
			t.Errorf("helper (declared in _test.go) marks = %b, want none", m)
		}
	}
}
