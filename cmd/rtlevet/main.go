// Command rtlevet runs the rtle static-analysis suite (txbody, abortpath,
// barrierdiscipline, loggate, guardmisuse — see rtle/internal/analysis)
// over Go packages. It works in two modes:
//
// Standalone, with go list patterns:
//
//	rtlevet ./...
//
// As a vet tool, speaking cmd/go's unitchecker protocol (-V=full, -flags,
// and a JSON *.cfg unit file per package), so the suite composes with the
// standard vet driver and its caching:
//
//	go build -o /tmp/rtlevet rtle/cmd/rtlevet
//	go vet -vettool=/tmp/rtlevet ./...
//
// Pass an analyzer's name as a flag (-txbody, -loggate, ...) to run a
// subset of the suite; by default every pass runs. -unusedignores
// additionally reports //rtle:ignore pragmas that suppressed nothing in
// the run, so stale waivers cannot silently outlive the finding they
// excused. Diagnostics go to stderr as file:line:col: analyzer: message;
// the exit status is nonzero when any diagnostic is reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rtle/internal/analysis"
	"rtle/internal/analysis/framework"
)

func main() {
	// The unitchecker protocol's version probe must work even though
	// flag.Parse would reject "-V=full".
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		printVersion()
		return
	}

	suite := analysis.Analyzers()
	enabled := map[string]*bool{}
	for _, a := range suite {
		enabled[a.Name] = flag.Bool(a.Name, false, a.Doc)
	}
	flagsMode := flag.Bool("flags", false, "print the tool's flags as JSON (unitchecker protocol)")
	unusedIgnores := flag.Bool("unusedignores", false, "also report //rtle:ignore pragmas that suppress nothing")
	flag.Parse()

	if *flagsMode {
		printFlags(suite)
		return
	}

	// An explicit subset selection keeps only the named analyzers.
	any := false
	for _, on := range enabled {
		any = any || *on
	}
	if any {
		var subset []*framework.Analyzer
		for _, a := range suite {
			if *enabled[a.Name] {
				subset = append(subset, a)
			}
		}
		suite = subset
	}

	full := !any // every pass ran, so a bare //rtle:ignore with no effect is provably stale
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitCheck(suite, *unusedIgnores, full, args[0]))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(suite, *unusedIgnores, full, args))
}

func printVersion() {
	// cmd/go hashes this line into its action cache key, so it must
	// change when the binary does — and when the suite does. Fingerprint
	// both: the executable bytes, and the pass list with per-pass
	// versions, so bumping an Analyzer.Version invalidates vet's cache
	// even on a build that happens to produce identical binary bytes
	// (and the printed line itself documents what ran).
	var passes []string
	for _, a := range analysis.Analyzers() {
		passes = append(passes, fmt.Sprintf("%s@%d", a.Name, a.Version))
	}
	suite := strings.Join(passes, "+")
	h := sha256.New()
	io.WriteString(h, suite)
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f) // best-effort: a constant ID only weakens caching
			f.Close()
		}
	}
	fmt.Printf("rtlevet version devel passes=%s buildID=%x\n", suite, h.Sum(nil)[:16])
}

func printFlags(suite []*framework.Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	for _, a := range suite {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	flags = append(flags, jsonFlag{Name: "unusedignores", Bool: true, Usage: "also report //rtle:ignore pragmas that suppress nothing"})
	data, err := json.Marshal(flags)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlevet:", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// standalone loads patterns through the module-aware loader and runs the
// suite over every matched package.
func standalone(suite []*framework.Analyzer, unusedIgnores, full bool, patterns []string) int {
	root, err := framework.ModuleRoot("")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlevet:", err)
		return 1
	}
	loader := framework.NewLoader(root)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlevet:", err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "rtlevet: %s: type error: %v\n", pkg.PkgPath, terr)
			exit = 1
		}
	}
	diags, err := framework.RunAnalyzers(suite, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlevet:", err)
		return 1
	}
	if unusedIgnores {
		diags = append(diags, framework.UnusedIgnores(suite, pkgs, full)...)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		exit = 1
	}
	return exit
}

// --- unitchecker protocol ---------------------------------------------------

// vetConfig mirrors the JSON unit file cmd/go feeds to -vettool programs
// (cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
	GoVersion                 string
}

// unitCheck analyzes the single compilation unit described by cfgFile.
func unitCheck(suite []*framework.Analyzer, unusedIgnores, full bool, cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlevet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "rtlevet: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// The suite exports no facts, so the vetx output is always empty —
	// but it must exist for cmd/go's action cache.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "rtlevet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // facts-only request for a dependency: nothing to do
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "rtlevet:", err)
			return 1
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q in unit config", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(cfg.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, err := range typeErrs {
			fmt.Fprintln(os.Stderr, "rtlevet:", err)
		}
		return 1
	}

	pkg := &framework.Package{
		PkgPath:   cfg.ImportPath,
		Module:    cfg.ModulePath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	if pkg.Module == "" {
		pkg.Module = "rtle"
	}
	diags, err := framework.RunAnalyzers(suite, []*framework.Package{pkg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtlevet:", err)
		return 1
	}
	if unusedIgnores {
		diags = append(diags, framework.UnusedIgnores(suite, []*framework.Package{pkg}, full)...)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
