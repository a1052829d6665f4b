package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Module    string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors collects non-fatal type-checking errors. Analyses still
	// run (types.Info is filled best-effort), but drivers should surface
	// them: a package that does not type-check yields unreliable
	// diagnostics.
	TypeErrors []error

	ann *Annotations
}

// Annotations returns the package's parsed //rtle: pragmas, computed once
// over the non-test files and cached. Sharing one value across analyzers
// is what lets //rtle:ignore usage accumulate for UnusedIgnores.
func (pkg *Package) Annotations() *Annotations {
	if pkg.ann == nil {
		pkg.ann = ParseAnnotations(pkg.Fset, NonTestFiles(pkg), pkg.TypesInfo)
	}
	return pkg.ann
}

// Loader loads and type-checks module packages without x/tools: package
// metadata comes from `go list -export -deps -json`, and imports resolve
// through the standard library's gc export-data importer pointed at the
// build cache. Loading therefore (re)compiles dependencies on first use —
// the same cost `go vet` pays.
type Loader struct {
	// Dir is the module root the `go list` invocations run from.
	Dir string

	fset    *token.FileSet
	module  string
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

type listedPackage struct {
	ImportPath      string
	Dir             string
	Export          string
	GoFiles         []string
	CompiledGoFiles []string
	Standard        bool
	DepOnly         bool
	Module          *struct{ Path string }
	Error           *struct{ Err string }
}

// NewLoader returns a loader rooted at the given module directory.
func NewLoader(moduleDir string) *Loader {
	l := &Loader{
		Dir:     moduleDir,
		fset:    token.NewFileSet(),
		exports: map[string]string{},
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not reachable from the loaded patterns)", path)
		}
		return os.Open(file)
	})
	return l
}

// ModuleRoot locates the enclosing module's root directory starting from
// dir (or the working directory when dir is empty).
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (go env GOMOD is empty)")
	}
	return filepath.Dir(gomod), nil
}

// list runs `go list -e -export -deps -json` over patterns and merges the
// results into the loader's metadata tables.
func (l *Loader) list(patterns ...string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,CompiledGoFiles,Standard,DepOnly,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if l.module == "" && !p.Standard && p.Module != nil {
			l.module = p.Module.Path
		}
	}
	return pkgs, nil
}

// Load loads, parses and type-checks the packages matching the go
// patterns (for example "./..."), excluding dependencies.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// LoadDir parses and type-checks the single package rooted at dir — a
// directory that need not be part of any build (analysistest golden
// packages under testdata/). Imports resolve against the enclosing
// module, so golden files may import the real rtle packages.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(filenames)
	files, err := l.parse(filenames)
	if err != nil {
		return nil, err
	}

	// Resolve every import (transitively, via -deps) before checking.
	imports := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != "" && l.exports[path] == "" {
				imports[path] = true
			}
		}
	}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		if _, err := l.list(paths...); err != nil {
			return nil, err
		}
	}
	if l.module == "" {
		// A testdata package importing only std: name the module anyway.
		cmd := exec.Command("go", "list", "-m")
		cmd.Dir = l.Dir
		if out, err := cmd.Output(); err == nil {
			l.module = strings.TrimSpace(string(out))
		}
	}

	name := files[0].Name.Name
	pkgPath := l.module + "/testdata/" + name
	return l.typecheck(pkgPath, files), nil
}

func (l *Loader) parse(filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(lp *listedPackage) (*Package, error) {
	filenames := lp.CompiledGoFiles
	if len(filenames) == 0 {
		filenames = lp.GoFiles
	}
	abs := make([]string, 0, len(filenames))
	for _, fn := range filenames {
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(lp.Dir, fn)
		}
		abs = append(abs, fn)
	}
	files, err := l.parse(abs)
	if err != nil {
		return nil, err
	}
	return l.typecheck(lp.ImportPath, files), nil
}

func (l *Loader) typecheck(pkgPath string, files []*ast.File) *Package {
	pkg := &Package{
		PkgPath: pkgPath,
		Module:  l.module,
		Fset:    l.fset,
		Files:   files,
		TypesInfo: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the package even on error; errors are in TypeErrors.
	pkg.Types, _ = conf.Check(pkgPath, l.fset, files, pkg.TypesInfo)
	return pkg
}
