package framework

import (
	"go/ast"
	"go/types"
)

// This file is the framework's lightweight interprocedural layer: an
// in-package call graph with per-function summaries (declared marks,
// direct gate effects), plus the two propagation rules barrierdiscipline
// relies on:
//
//   - MarkReachable: a root mark (//rtle:slowpath, Run-closure seeds)
//     flows forward to everything the root calls, stopping at cut marks.
//   - MarkCovered: a contextual mark (//rtle:lockpath) flows backward onto
//     helpers all of whose callers carry it, so the mark need not be
//     restated at every private helper.
//
// The graph is deliberately in-package and static-call only — the same
// scope the intra-function passes already assumed — so it stays cheap
// (one AST walk per function) and needs nothing beyond go/types.

// Effects is a bit set of facts a function body itself establishes about
// shard drain gates; loggate counts a call to a function that takes (or
// drops) gates as entering (or leaving) a held region.
type Effects uint8

const (
	// EffectExclusiveGate: acquires a drain gate exclusively (gate.Lock).
	EffectExclusiveGate Effects = 1 << iota
	// EffectExclusiveUngate: releases an exclusive gate (gate.Unlock).
	EffectExclusiveUngate
)

// Has reports whether all bits of e2 are set in e.
func (e Effects) Has(e2 Effects) bool { return e&e2 == e2 }

// Summary is one function's interprocedural summary.
type Summary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl

	// Declared holds the marks written at the declaration itself.
	Declared Marks
	// Marks holds the effective marks: Declared plus anything seeded via
	// Graph.Mark or propagated by MarkReachable / MarkCovered.
	Marks Marks

	// Direct holds the effects established by this body alone.
	Direct Effects

	// Callees lists the in-package functions this body statically calls
	// (including from closures), deduplicated, in source order.
	Callees []*types.Func

	callers      map[*types.Func]bool
	addressTaken bool
}

// Graph is the in-package call graph over one Pass's syntax.
type Graph struct {
	pass  *Pass
	funcs map[*types.Func]*Summary
	order []*types.Func
}

// NewGraph builds the call graph and function summaries for pass.
func NewGraph(pass *Pass) *Graph {
	g := &Graph{pass: pass, funcs: map[*types.Func]*Summary{}}

	// First pass: one summary per declared function body.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			marks := pass.Ann.FuncMarks(fn)
			g.funcs[fn] = &Summary{
				Fn:       fn,
				Decl:     fd,
				Declared: marks,
				Marks:    marks,
				callers:  map[*types.Func]bool{},
			}
			g.order = append(g.order, fn)
		}
	}

	// Second pass: direct gate effects, call edges, and address-taken uses.
	for _, fn := range g.order {
		s := g.funcs[fn]
		seen := map[*types.Func]bool{}
		funIdents := map[*ast.Ident]bool{}
		ast.Inspect(s.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				funIdents[fun] = true
			case *ast.SelectorExpr:
				funIdents[fun.Sel] = true
			}
			if name, ok := GateMethod(pass.TypesInfo, call); ok {
				switch name {
				case "Lock":
					s.Direct |= EffectExclusiveGate
				case "Unlock":
					s.Direct |= EffectExclusiveUngate
				}
			}
			callee := CalleeFunc(pass.TypesInfo, call)
			if callee == nil || seen[callee] {
				return true
			}
			if cs, ok := g.funcs[callee]; ok {
				seen[callee] = true
				s.Callees = append(s.Callees, callee)
				cs.callers[fn] = true
			}
			return true
		})
		ast.Inspect(s.Decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || funIdents[id] {
				return true
			}
			if ref, ok := g.pass.TypesInfo.Uses[id].(*types.Func); ok {
				if rs, ok := g.funcs[ref]; ok {
					rs.addressTaken = true
				}
			}
			return true
		})
	}
	return g
}

// Summary returns fn's summary, or nil when fn has no body in this
// package.
func (g *Graph) Summary(fn *types.Func) *Summary { return g.funcs[fn] }

// Functions returns every summary in source order.
func (g *Graph) Functions() []*Summary {
	out := make([]*Summary, 0, len(g.order))
	for _, fn := range g.order {
		out = append(out, g.funcs[fn])
	}
	return out
}

// Mark seeds additional effective marks on fn (a no-op for functions
// without a summary). Passes use it to plant roots that are not literal
// annotations, e.g. closure callees of a Run combinator.
func (g *Graph) Mark(fn *types.Func, m Marks) {
	if s := g.funcs[fn]; s != nil {
		s.Marks |= m
	}
}

// MarkReachable propagates mark m forward: every function statically
// reachable from a function whose effective marks include any bit of m
// gains m, except that propagation neither enters nor crosses functions
// whose effective marks include a bit of stop. Roots carrying a stop bit
// do not propagate.
func (g *Graph) MarkReachable(m Marks, stop Marks) {
	var work []*types.Func
	for _, fn := range g.order {
		s := g.funcs[fn]
		if s.Marks&m != 0 && s.Marks&stop == 0 {
			work = append(work, fn)
		}
	}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		for _, callee := range g.funcs[fn].Callees {
			cs := g.funcs[callee]
			if cs.Marks&stop != 0 || cs.Marks&m == m {
				continue
			}
			cs.Marks |= m
			work = append(work, callee)
		}
	}
}

// MarkCovered propagates mark m backward: an unannotated, unexported
// function with at least one in-package caller, all of whose callers'
// effective marks intersect coverers, gains m — the helper inherits its
// callers' context instead of restating it. Functions that carry any
// declared mark keep their author's word; functions that are exported or
// referenced as values (address taken, so callable from anywhere) never
// inherit. Iterates to a fixpoint so chains of helpers resolve.
func (g *Graph) MarkCovered(m Marks, coverers Marks) {
	for changed := true; changed; {
		changed = false
		for _, fn := range g.order {
			s := g.funcs[fn]
			if s.Declared != 0 || s.Marks.Has(m) || s.addressTaken || fn.Exported() || len(s.callers) == 0 {
				continue
			}
			covered := true
			for caller := range s.callers {
				if g.funcs[caller].Marks&coverers == 0 {
					covered = false
					break
				}
			}
			if covered {
				s.Marks |= m
				changed = true
			}
		}
	}
}

// --- serving-layer recognizers ---------------------------------------------

// GateMethod reports whether call invokes a sync.RWMutex method on a
// shard drain gate — a field or variable named "gate" — returning the
// method name (Lock, Unlock, RLock, RUnlock).
func GateMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	recv := ReceiverNamed(fn)
	if recv == nil || recv.Obj().Name() != "RWMutex" {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", false
	}
	var name string
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.Ident:
		name = x.Name
	default:
		return "", false
	}
	if name != "gate" {
		return "", false
	}
	return fn.Name(), true
}

// IsLogAppend reports whether call appends to the replication log: either
// the low-level repl.Log.Append or the serving layer's replication.append
// wrapper. The replica mirror's Log.AppendEntry is deliberately excluded —
// followers replay an already-ordered stream and hold no gates.
func IsLogAppend(info *types.Info, module string, call *ast.CallExpr) bool {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	if IsMethodOf(fn, "internal/repl", "Log", "Append") {
		return true
	}
	if fn.Name() != "append" || !InModule(fn.Pkg(), module) {
		return false
	}
	recv := ReceiverNamed(fn)
	return recv != nil && recv.Obj().Name() == "replication"
}

// IsBarrierSeqAccess reports whether call loads or stores the sync-ack
// barrier sequence: an atomic.Uint64 method on a field or variable named
// "lastSeq".
func IsBarrierSeqAccess(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	recv := ReceiverNamed(fn)
	if recv == nil || recv.Obj().Name() != "Uint64" {
		return false
	}
	var name string
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.Ident:
		name = x.Name
	default:
		return false
	}
	return name == "lastSeq"
}
