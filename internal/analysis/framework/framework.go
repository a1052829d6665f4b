// Package framework is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough loader, annotation and
// suppression machinery to host the static checks (txbody, abortpath,
// loggate) without importing anything outside the standard library.
//
// The shape deliberately mirrors go/analysis — an Analyzer owns a Run
// function over a Pass carrying syntax plus type information — so the
// passes can be ported to the real framework wholesale if x/tools ever
// becomes an acceptable dependency.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in //rtle:ignore
	// pragmas. It must be a valid identifier.
	Name string
	// Run applies the pass to one package. Diagnostics are reported via
	// Pass.Report; the error return is for operational failures only.
	Run func(*Pass) error
}

// Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzed package through one Analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset *token.FileSet
	// Files is the package syntax, excluding _test.go files: the
	// instrumentation discipline binds production paths; tests poke
	// internals on purpose.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the module path of the analyzed tree ("rtle"), used by
	// passes that restrict themselves to in-module APIs.
	Module string
	// Ann is the package's parsed //rtle: annotations.
	Ann *Annotations

	diags []Diagnostic
}

// Report records a diagnostic at pos unless an //rtle:ignore pragma
// suppresses this analyzer at that line.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Ann.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// NonTestFiles returns pkg's syntax excluding _test.go files.
func NonTestFiles(pkg *Package) []*ast.File {
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// RunAnalyzer applies a to pkg and returns its diagnostics in file/line
// order. The package's Annotations are parsed once and shared across
// analyzers so //rtle:ignore usage accumulates for UnusedIgnores.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     NonTestFiles(pkg),
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Module:    pkg.Module,
		Ann:       pkg.Annotations(),
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	sortDiagnostics(pass.diags)
	return pass.diags, nil
}

// RunAnalyzers applies every analyzer to every package, concatenating the
// diagnostics in (package, analyzer, position) order.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			diags, err := RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			all = append(all, diags...)
		}
	}
	return all, nil
}

// UnusedIgnores reports, for every package, the //rtle:ignore pragmas that
// suppressed nothing once the whole suite has run through RunAnalyzers on
// these same Package values — including pragmas naming a pass that no
// longer exists.
func UnusedIgnores(pkgs []*Package) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		all = append(all, pkg.Annotations().UnusedIgnores()...)
	}
	return all
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// --- shared type-query helpers ---------------------------------------------

// PkgPathIs reports whether pkg is the package with the given in-module
// path suffix ("internal/mem", "internal/htm", ...). Matching by suffix
// keeps the passes working if the module is ever renamed or vendored.
func PkgPathIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// CalleeFunc resolves the static callee of call, or nil for calls through
// function values, built-ins and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// ReceiverNamed returns the named type of fn's receiver (dereferencing one
// pointer), or nil for plain functions.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsMethodOf reports whether fn is a method named name on the named type
// typeName declared in the package with the given path suffix.
func IsMethodOf(fn *types.Func, pkgSuffix, typeName, name string) bool {
	if fn == nil || fn.Name() != name || !PkgPathIs(fn.Pkg(), pkgSuffix) {
		return false
	}
	recv := ReceiverNamed(fn)
	return recv != nil && recv.Obj().Name() == typeName
}

// IsMemoryMethod reports whether fn is a method on mem.Memory with one of
// the given names (any name if none given).
func IsMemoryMethod(fn *types.Func, names ...string) bool {
	if fn == nil || !PkgPathIs(fn.Pkg(), "internal/mem") {
		return false
	}
	recv := ReceiverNamed(fn)
	if recv == nil || recv.Obj().Name() != "Memory" {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsTxMethod reports whether fn is a method on htm.Tx with one of the
// given names (any name if none given).
func IsTxMethod(fn *types.Func, names ...string) bool {
	if fn == nil || !PkgPathIs(fn.Pkg(), "internal/htm") {
		return false
	}
	recv := ReceiverNamed(fn)
	if recv == nil || recv.Obj().Name() != "Tx" {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsAbortReason reports whether t is htm.AbortReason.
func IsAbortReason(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "AbortReason" && PkgPathIs(named.Obj().Pkg(), "internal/htm")
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// InModule reports whether pkg belongs to the analyzed module.
func InModule(pkg *types.Package, module string) bool {
	if pkg == nil || module == "" {
		return false
	}
	p := pkg.Path()
	return p == module || strings.HasPrefix(p, module+"/")
}
