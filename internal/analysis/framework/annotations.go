package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //rtle: pragma vocabulary. See rtle/internal/analysis's package
// documentation for the full convention.
const (
	pragmaPrefix = "//rtle:"

	// MarkSpeculative marks a function whose body executes inside a
	// hardware transaction (fast or slow path).
	MarkSpeculative Marks = 1 << iota
	// MarkInit marks single-threaded setup code (constructors): no
	// concurrent reader exists yet, so loggate lets it touch the barrier
	// sequence outside a gate.
	MarkInit
	// MarkGated marks a function whose contract is caller-holds-gates:
	// its body may append to the replication log and touch the barrier
	// sequence, and every call site must itself sit in a held gate
	// region (or in another gated function).
	MarkGated
)

// Marks is a bit set of function path annotations.
type Marks uint16

// Has reports whether all bits of m2 are set in m.
func (m Marks) Has(m2 Marks) bool { return m&m2 == m2 }

// Annotations holds one package's parsed //rtle: pragmas.
type Annotations struct {
	// Engine reports a package marked //rtle:engine: it implements the
	// simulated hardware itself (mem, htm, spinlock), sits below the
	// barrier layer, and is exempt from txbody.
	Engine bool

	funcs map[*types.Func]Marks

	// suppress maps filename -> line -> the //rtle:ignore pragmas
	// covering that line.
	suppress map[string]map[int][]*ignorePragma
}

// ignorePragma is one parsed //rtle:ignore comment. used flips when the
// pragma actually suppresses a diagnostic, feeding UnusedIgnores.
type ignorePragma struct {
	analyzer string // pass name, or "*" for all
	pos      token.Position
	trailing bool // shares its line with code, so it covers that line only
	used     bool
}

// FuncMarks returns the path marks of fn (zero when unannotated).
func (a *Annotations) FuncMarks(fn *types.Func) Marks { return a.funcs[fn] }

// suppressed reports whether an //rtle:ignore pragma covers analyzer at
// pos, marking any matching pragma as used. A pragma trailing code
// suppresses its own line; a standalone one suppresses the line below it.
// A trailing pragma must not reach the next line too, or deleting the
// statement it was written for silently re-aims it at its neighbour.
func (a *Annotations) suppressed(analyzer string, pos token.Position) bool {
	lines := a.suppress[pos.Filename]
	hit := false
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, p := range lines[l] {
			if l != pos.Line && p.trailing {
				continue
			}
			if p.analyzer == "*" || p.analyzer == analyzer {
				p.used = true
				hit = true
			}
		}
	}
	return hit
}

// UnusedIgnores returns a diagnostic for every //rtle:ignore pragma that
// never suppressed a finding. Call it only after every analyzer has
// reported through this Annotations value.
func (a *Annotations) UnusedIgnores() []Diagnostic {
	var out []Diagnostic
	for _, lines := range a.suppress {
		for _, ps := range lines {
			for _, p := range ps {
				if p.used {
					continue
				}
				out = append(out, Diagnostic{
					Analyzer: "unusedignores",
					Pos:      p.pos,
					Message:  "//rtle:ignore " + strings.TrimSuffix(p.analyzer+" ", "* ") + "suppresses nothing; delete the stale waiver",
				})
			}
		}
	}
	sortDiagnostics(out)
	return out
}

// pragmaLines extracts the "verb rest" pairs of all //rtle: pragma lines
// in a comment group.
func pragmaLines(g *ast.CommentGroup) [][2]string {
	if g == nil {
		return nil
	}
	var out [][2]string
	for _, c := range g.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, pragmaPrefix) {
			continue
		}
		body := strings.TrimPrefix(text, pragmaPrefix)
		verb, rest, _ := strings.Cut(body, " ")
		out = append(out, [2]string{verb, strings.TrimSpace(rest)})
	}
	return out
}

func marksOf(g *ast.CommentGroup) Marks {
	var m Marks
	for _, p := range pragmaLines(g) {
		switch p[0] {
		case "speculative":
			m |= MarkSpeculative
		case "init":
			m |= MarkInit
		case "gated":
			m |= MarkGated
		}
	}
	return m
}

// ParseAnnotations scans the package syntax for //rtle: pragmas.
func ParseAnnotations(fset *token.FileSet, files []*ast.File, info *types.Info) *Annotations {
	a := &Annotations{
		funcs:    map[*types.Func]Marks{},
		suppress: map[string]map[int][]*ignorePragma{},
	}
	for _, file := range files {
		filename := fset.Position(file.Package).Filename
		code := codeLines(fset, file)

		// Engine marker and //rtle:ignore pragmas can appear in any
		// comment group.
		for _, g := range file.Comments {
			for _, p := range pragmaLines(g) {
				switch p[0] {
				case "engine":
					a.Engine = true
				case "ignore":
					// Locate the pragma's own line.
					for _, c := range g.List {
						text := strings.TrimSpace(c.Text)
						if !strings.HasPrefix(text, pragmaPrefix+"ignore") {
							continue
						}
						pos := fset.Position(c.Pos())
						names := strings.Fields(strings.TrimPrefix(text, pragmaPrefix+"ignore"))
						// Reasons follow the analyzer name; only the
						// first field selects. No name = all analyzers.
						name := "*"
						if len(names) > 0 {
							name = names[0]
						}
						if a.suppress[filename] == nil {
							a.suppress[filename] = map[int][]*ignorePragma{}
						}
						a.suppress[filename][pos.Line] = append(a.suppress[filename][pos.Line],
							&ignorePragma{analyzer: name, pos: pos, trailing: code[pos.Line]})
					}
				}
			}
		}

		for _, decl := range file.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := info.Defs[d.Name].(*types.Func); ok {
					if m := marksOf(d.Doc); m != 0 {
						a.funcs[fn] = m
					}
				}
			}
		}
	}
	return a
}

// codeLines returns the lines of file on which a syntax node other than a
// comment begins or ends: the lines a comment can share with code.
func codeLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// HasAdjacentComment reports whether any comment in file sits on the same
// line as pos or ends on the line directly above it — the "justifying
// comment" test abortpath applies to explicit `_ =` discards. Analysistest
// expectations (`// want "re"`) are markers for the golden-test harness,
// not justifications, and never count.
func HasAdjacentComment(fset *token.FileSet, file *ast.File, pos token.Pos) bool {
	line := fset.Position(pos).Line
	for _, g := range file.Comments {
		for _, c := range g.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ") {
				continue
			}
			cl := fset.Position(c.Pos()).Line
			end := fset.Position(c.End()).Line
			if cl == line || end == line-1 {
				return true
			}
		}
	}
	return false
}
