package framework

import (
	"go/ast"
	"go/types"
)

// Per-function summaries (declared marks, direct gate effects) over one
// package let a pass classify a call by what its in-package callee does or
// declares. They are in-package and static-call only, so they stay cheap
// (one AST walk per function) and need nothing beyond go/types.

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

	// Marks holds the marks written at the declaration.
	Marks Marks

	// Direct holds the effects established by this body alone.
	Direct Effects
}

// Summaries holds the summaries of one Pass's declared functions.
type Summaries struct {
	funcs map[*types.Func]*Summary
	order []*types.Func
}

// NewSummaries builds the function summaries for pass.
func NewSummaries(pass *Pass) *Summaries {
	g := &Summaries{funcs: map[*types.Func]*Summary{}}
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
			s := &Summary{Fn: fn, Decl: fd, Marks: pass.Ann.FuncMarks(fn)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					switch name, _ := GateMethod(pass.TypesInfo, call); name {
					case "Lock":
						s.Direct |= EffectExclusiveGate
					case "Unlock":
						s.Direct |= EffectExclusiveUngate
					}
				}
				return true
			})
			g.funcs[fn] = s
			g.order = append(g.order, fn)
		}
	}
	return g
}

// Summary returns fn's summary, or nil when fn has no body in this
// package.
func (g *Summaries) Summary(fn *types.Func) *Summary { return g.funcs[fn] }

// Functions returns every summary in source order.
func (g *Summaries) Functions() []*Summary {
	out := make([]*Summary, 0, len(g.order))
	for _, fn := range g.order {
		out = append(out, g.funcs[fn])
	}
	return out
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
