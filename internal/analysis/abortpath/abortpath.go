// Package abortpath defines the pass that keeps abort codes and
// in-module errors from being silently dropped.
//
// (*htm.Tx).Run never retries — the caller owns the retry/fallback
// decision, exactly as with XBEGIN's fallback path on real hardware. A
// call to Run (or to any API returning htm.AbortReason) whose result is
// discarded is therefore a transaction begin with no reachable abort
// handler: on the first conflict or capacity overflow the critical
// section silently does not execute. The same goes for discarded error
// returns from this module's own APIs (exporters, plan parsers, checkers).
//
// Two discard shapes are flagged:
//
//	tx.Run(body)          // expression statement: always a bug
//	_ = tx.Run(body)      // explicit discard: needs a justifying comment
//
// An explicit `_ =` discard is accepted when a comment sits on the same
// line or on the line directly above it (an //rtle:ignore abortpath
// pragma works too, and also silences the expression-statement form).
package abortpath

import (
	"go/ast"
	"go/types"

	"rtle/internal/analysis/framework"
)

// Analyzer is the abortpath pass.
var Analyzer = &framework.Analyzer{
	Name: "abortpath",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if what := discardedResult(pass, call); what != "" {
					pass.Report(stmt.Pos(),
						"%s discarded: every transaction begin needs a reachable abort/retry handler (use the result, or `_ =` it with a justifying comment)",
						what)
				}
			case *ast.AssignStmt:
				checkBlankAssign(pass, file, stmt)
			}
			return true
		})
	}
	return nil
}

// checkBlankAssign flags `_ = call` discards of abort codes or in-module
// errors that carry no justifying comment.
func checkBlankAssign(pass *framework.Pass, file *ast.File, stmt *ast.AssignStmt) {
	if len(stmt.Rhs) != 1 {
		return
	}
	for _, lhs := range stmt.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return // at least one result is kept
		}
	}
	call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	what := discardedResult(pass, call)
	if what == "" {
		return
	}
	if framework.HasAdjacentComment(pass.Fset, file, stmt.Pos()) {
		return
	}
	pass.Report(stmt.Pos(), "%s explicitly discarded without a justifying comment", what)
}

// discardedResult reports what dropping the call's results would discard:
// an htm.AbortReason from any API, or an error produced by this module's
// own functions. Empty means the discard is unremarkable.
func discardedResult(pass *framework.Pass, call *ast.CallExpr) string {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return ""
	}
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	describe := func(kind string) string {
		if fn != nil {
			return kind + " from " + callName(fn)
		}
		return kind
	}
	check := func(t types.Type) string {
		if framework.IsAbortReason(t) {
			return describe("abort code")
		}
		if framework.IsErrorType(t) && fn != nil && framework.InModule(fn.Pkg(), pass.Module) {
			return describe("error")
		}
		return ""
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if what := check(tuple.At(i).Type()); what != "" {
				return what
			}
		}
		return ""
	}
	return check(tv.Type)
}

func callName(fn *types.Func) string {
	if recv := framework.ReceiverNamed(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
