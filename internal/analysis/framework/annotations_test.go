package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"
)

// checkSource parses and type-checks one import-free source file.
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
	conf := types.Config{Error: func(err error) { t.Fatalf("type check: %v", err) }}
	pkg.Types, _ = conf.Check(pkg.PkgPath, fset, pkg.Files, pkg.TypesInfo)
	return pkg
}

const annotatedSrc = `package p

//rtle:engine

type state struct {
	flag uint64 //rtle:meta
	// epoch is the lock holder's clock.
	//rtle:meta
	epoch uint64
	plain uint64
}

// run is both speculative and, after fallback, a lock holder.
//
//rtle:speculative
//rtle:lockpath
func run(s *state) { s.flag = 1 }

//rtle:init
func setup() *state { return &state{} }

func unmarked() {}
`

func TestParseAnnotations(t *testing.T) {
	pkg := checkSource(t, "p.go", annotatedSrc)
	ann := ParseAnnotations(pkg.Fset, pkg.Files, pkg.TypesInfo)

	if !ann.Engine {
		t.Errorf("Engine = false, want true")
	}

	funcs := map[string]Marks{}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if fn, ok := scope.Lookup(name).(*types.Func); ok {
			funcs[name] = ann.FuncMarks(fn)
		}
	}
	if m := funcs["run"]; !m.Has(MarkSpeculative) || !m.Has(MarkLockpath) || m.Has(MarkSlowpath) {
		t.Errorf("run marks = %b, want speculative|lockpath", m)
	}
	if m := funcs["setup"]; !m.Has(MarkInit) {
		t.Errorf("setup marks = %b, want init", m)
	}
	if m := funcs["unmarked"]; m != 0 {
		t.Errorf("unmarked marks = %b, want none", m)
	}

	st := scope.Lookup("state").Type().Underlying().(*types.Struct)
	wantMeta := map[string]bool{"flag": true, "epoch": true, "plain": false}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if got := ann.IsMeta(f); got != wantMeta[f.Name()] {
			t.Errorf("IsMeta(%s) = %v, want %v", f.Name(), got, wantMeta[f.Name()])
		}
	}
	if !ann.HasMeta() {
		t.Errorf("HasMeta() = false, want true")
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
		Doc:  "flags every call",
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
		Doc:  "flags every call",
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
//rtle:lockpath
func (s *(State)) Mark() { s.n++ }

// held carries a compiler directive between the mark and the declaration;
// both live in the same doc group and the mark must still bind.
//
//rtle:lockpath
//go:noinline
func held() {}
`

// TestParseAnnotationsEdgeCases pins two shapes that once silently lost
// marks in prototype parsers: parenthesized (grouped) receiver types, and
// marks stacked above //go: compiler directives.
func TestParseAnnotationsEdgeCases(t *testing.T) {
	pkg := checkSource(t, "p.go", edgeSrc)
	ann := ParseAnnotations(pkg.Fset, pkg.Files, pkg.TypesInfo)
	if len(ann.Errors) != 0 {
		t.Fatalf("unexpected annotation errors: %v", ann.Errors)
	}

	scope := pkg.Types.Scope()
	named := scope.Lookup("State").Type()
	var method *types.Func
	for ms, i := types.NewMethodSet(types.NewPointer(named)), 0; i < ms.Len(); i++ {
		if fn := ms.At(i).Obj().(*types.Func); fn.Name() == "Mark" {
			method = fn
		}
	}
	if method == nil {
		t.Fatal("method Mark not found on *State")
	}
	if m := ann.FuncMarks(method); !m.Has(MarkLockpath) {
		t.Errorf("FuncMarks((*(State)).Mark) = %b, want lockpath: grouped receiver dropped the mark", m)
	}
	if m := ann.FuncMarks(scope.Lookup("held").(*types.Func)); !m.Has(MarkLockpath) {
		t.Errorf("FuncMarks(held) = %b, want lockpath: //go: directive shadowed the mark", m)
	}
}

const conflictSrc = `package p

// torn claims to be both a slow path and a lock holder; barrierdiscipline
// would honour lockpath and never check the body, so the parser must reject
// the pair instead.
//
//rtle:slowpath
//rtle:lockpath
func torn() {}

//rtle:slowpath
//rtle:init
func tornInit() {}

//rtle:slowpath
func fine() {}
`

// TestParseAnnotationsConflict requires conflicting mark pairs to produce
// a parse error and apply neither bit — not last-wins.
func TestParseAnnotationsConflict(t *testing.T) {
	pkg := checkSource(t, "p.go", conflictSrc)
	ann := ParseAnnotations(pkg.Fset, pkg.Files, pkg.TypesInfo)
	if len(ann.Errors) != 2 {
		t.Fatalf("got %d annotation errors, want 2: %v", len(ann.Errors), ann.Errors)
	}
	for _, e := range ann.Errors {
		if e.Analyzer != "annotations" {
			t.Errorf("error attributed to %q, want \"annotations\"", e.Analyzer)
		}
	}
	scope := pkg.Types.Scope()
	if m := ann.FuncMarks(scope.Lookup("torn").(*types.Func)); m != 0 {
		t.Errorf("torn marks = %b, want neither slowpath nor lockpath applied", m)
	}
	if m := ann.FuncMarks(scope.Lookup("tornInit").(*types.Func)); m != 0 {
		t.Errorf("tornInit marks = %b, want neither slowpath nor init applied", m)
	}
	if m := ann.FuncMarks(scope.Lookup("fine").(*types.Func)); !m.Has(MarkSlowpath) {
		t.Errorf("fine marks = %b, want slowpath: a conflict elsewhere must not leak", m)
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
		parse("p_test.go", "package p\n\n//rtle:lockpath\nfunc helper() {}\n"),
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
