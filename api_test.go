package rtle_test

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublicAPI pins every exported declaration of package rtle, one per
// line, against testdata/public_api.golden, so the public surface (a second
// option vocabulary, say) changes only with a reviewed golden diff. On a
// mismatch it prints the new listing; a deliberate change pastes that
// listing into the golden file.
func TestPublicAPI(t *testing.T) {
	got := publicAPI(t)
	want, err := os.ReadFile(filepath.Join("testdata", "public_api.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the public API differs from testdata/public_api.golden; the new listing:\n%s", got)
	}
}

// publicAPI renders package rtle's exported declarations in go/doc order:
// package-level constants, variables and functions, then each type with
// its constructors and methods.
func publicAPI(t *testing.T) string {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "rtle")
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	line := func(node any) {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		out.WriteString(strings.Join(strings.Fields(b.String()), " "))
		out.WriteByte('\n')
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			var typ ast.Expr // an implicitly repeated spec keeps its group's type
			for _, s := range v.Decl.Specs {
				spec := *s.(*ast.ValueSpec)
				if spec.Type != nil || spec.Values != nil {
					typ = spec.Type
				} else {
					spec.Type = typ
				}
				spec.Doc, spec.Comment = nil, nil
				line(&ast.GenDecl{Tok: v.Decl.Tok, Specs: []ast.Spec{&spec}})
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			d := *f.Decl
			d.Doc, d.Body = nil, nil
			line(&d)
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		for _, s := range typ.Decl.Specs {
			ts := *s.(*ast.TypeSpec)
			if ts.Name.Name != typ.Name {
				continue // a grouped declaration lists every spec; render this type's
			}
			ts.Doc, ts.Comment = nil, nil
			line(&ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&ts}})
		}
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	return out.String()
}
