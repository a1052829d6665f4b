// Package txbody defines the pass that flags HTM-unfriendly operations
// inside hardware-transaction bodies.
//
// A transaction body is a func literal passed to (*htm.Tx).Run or to an
// elision guard's Do/RDo (guard.Mutex, guard.RWMutex — rtle.Mutex and
// rtle.RWMutex to users), or any function marked //rtle:speculative. On
// real hardware (and in the htm simulation, via Tx.Unsupported and
// capacity aborts) such code must not:
//
//   - access the simulated heap except through the Tx.Read/Tx.Write
//     barriers — a raw mem.Memory access bypasses conflict tracking and
//     silently breaks opacity;
//   - block: channel operations, select, goroutine launches and calls
//     into time/os/syscall/net/io/fmt/log abort every attempt
//     (the paper's "unsupported instruction" case, §6.3);
//   - use Go-level synchronization (sync, sync/atomic): it bypasses the
//     transactional barriers and deadlocks against the fallback lock;
//   - allocate aggressively (make/new/append/&T{}): allocation triggers
//     runtime machinery a hardware transaction cannot speculate through
//     and inflates the write set toward a capacity abort.
//
// Packages marked //rtle:engine (mem, htm, spinlock) implement the
// simulated hardware itself and are exempt.
package txbody

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rtle/internal/analysis/framework"
)

// Analyzer is the txbody pass.
var Analyzer = &framework.Analyzer{
	Name: "txbody",
	Run:  run,
}

// rawMemMethods are the mem.Memory entry points that bypass transactional
// tracking when called from inside a transaction body.
var rawMemMethods = []string{
	"Load", "Store", "CAS", "FetchAdd",
	"Snap", "WordStore", "MetaLoad", "TryLockLine", "UnlockLine",
	"ClockLoad", "ClockTick", "Alloc", "AllocAligned", "AllocLines",
}

// blockedPkgs are import paths whose calls block or execute instructions
// HTM cannot speculate through.
var blockedPkgs = map[string]string{
	"time":    "blocks or reads the clock",
	"os":      "performs a syscall",
	"syscall": "performs a syscall",
	"net":     "performs network I/O",
	"io":      "performs I/O",
	"bufio":   "performs I/O",
	"fmt":     "formats and allocates (and may write)",
	"log":     "performs I/O",
	"runtime": "invokes runtime machinery",
}

var syncPkgs = map[string]string{
	"sync":        "Go-level synchronization deadlocks against the fallback lock",
	"sync/atomic": "atomic operations bypass the transactional barriers",
}

func run(pass *framework.Pass) error {
	if pass.Ann.Engine {
		return nil
	}
	for _, file := range pass.Files {
		// Func literals passed to (*htm.Tx).Run or a guard's Do/RDo.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
			if !ok {
				return true
			}
			fn := framework.CalleeFunc(pass.TypesInfo, call)
			switch {
			case framework.IsTxMethod(fn, "Run"):
				checkBody(pass, lit.Body, "transaction body")
			case isGuardDo(fn):
				checkBody(pass, lit.Body, "guard "+fn.Name()+" body")
			}
			return true
		})
		// Functions marked //rtle:speculative.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn != nil && pass.Ann.FuncMarks(fn).Has(framework.MarkSpeculative) {
				checkBody(pass, fd.Body, "speculative function "+fd.Name.Name)
			}
		}
	}
	return nil
}

// isGuardDo reports whether fn is the closure form of an elision guard:
// Do on guard.Mutex, Do or RDo on guard.RWMutex. The closure runs as a
// hardware transaction (and again under the lock after a fallback).
func isGuardDo(fn *types.Func) bool {
	return framework.IsMethodOf(fn, "internal/guard", "Mutex", "Do") ||
		framework.IsMethodOf(fn, "internal/guard", "RWMutex", "Do") ||
		framework.IsMethodOf(fn, "internal/guard", "RWMutex", "RDo")
}

// checkBody reports every HTM-unfriendly operation in body, describing
// the location as where (e.g. "transaction body", "guard Do body").
func checkBody(pass *framework.Pass, body *ast.BlockStmt, where string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Report(n.Pos(), "channel send inside %s: blocking operations abort every hardware attempt", where)
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				pass.Report(n.Pos(), "channel receive inside %s: blocking operations abort every hardware attempt", where)
			case token.AND:
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Report(n.Pos(), "heap allocation (&composite literal) inside %s risks a capacity or unsupported-instruction abort", where)
				}
			}
		case *ast.SelectStmt:
			pass.Report(n.Pos(), "select inside %s: blocking operations abort every hardware attempt", where)
		case *ast.GoStmt:
			pass.Report(n.Pos(), "goroutine launch inside %s cannot be rolled back on abort", where)
		case *ast.CallExpr:
			checkCall(pass, n, where)
		}
		return true
	})
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, where string) {
	// Built-ins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new", "append":
				pass.Report(call.Pos(), "allocation via %s inside %s risks a capacity or unsupported-instruction abort", id.Name, where)
			case "print", "println":
				pass.Report(call.Pos(), "%s inside %s performs I/O, which HTM cannot speculate through", id.Name, where)
			}
			return
		}
	}
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if framework.IsMemoryMethod(fn, rawMemMethods...) {
		pass.Report(call.Pos(),
			"raw heap access Memory.%s inside %s bypasses the transactional read/write barriers; route it through Tx.Read/Tx.Write (or a Context)",
			fn.Name(), where)
		return
	}
	path := fn.Pkg().Path()
	if why, ok := syncPkgs[path]; ok {
		pass.Report(call.Pos(), "call to %s.%s inside %s: %s", path, fn.Name(), where, why)
		return
	}
	for pkg, why := range blockedPkgs {
		if path == pkg || strings.HasPrefix(path, pkg+"/") {
			pass.Report(call.Pos(), "call to %s.%s inside %s: %s — HTM cannot speculate through it", path, fn.Name(), where, why)
			return
		}
	}
}
