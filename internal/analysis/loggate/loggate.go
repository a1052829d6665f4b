// Package loggate defines the pass that statically enforces the
// log-order-equals-gate-order invariant (DESIGN.md §9): replica replay is
// sound only because every replication-log append happens while the
// mutated shards' drain gates are held, so the log's total order is a
// linearization of gate order.
//
// Concretely, in every package except the log engine itself
// (internal/repl):
//
//  1. A replication append — `replication.append` or the low-level
//     `repl.Log.Append` — must sit inside a held gate region: between a
//     gate.RLock/Lock (or a call to a helper that takes the gates) and the
//     matching release. Outside a gate the appended block can interleave
//     with a concurrent drain, and log order detaches from gate order.
//
//  2. Sync-ack barrier-sequence accesses (the `lastSeq` atomic) must also
//     be inside the gate: a barrier read outside the region can observe a
//     sequence from a block that has not reached the log yet.
//
//  3. A function marked //rtle:gated gets both for free — its contract is
//     caller-holds-gates — but then every call site of a gated function
//     must itself sit in a held gate region (or inside another gated
//     function), which is how the obligation discharges interprocedurally.
//
// The replica mirror's Log.AppendEntry is deliberately not an append in
// this sense: followers replay an already-ordered stream and hold no
// gates.
//
// Region tracking is positional per body: acquires (shared or exclusive,
// direct or via a helper whose body takes or drops exclusive gates) are
// counted in textual order. The disciplines this pass guards keep
// acquire, append, and release in one straight-line function.
package loggate

import (
	"go/ast"
	"go/token"
	"sort"

	"rtle/internal/analysis/framework"
)

// Analyzer is the loggate pass.
var Analyzer = &framework.Analyzer{
	Name: "loggate",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if framework.PkgPathIs(pass.Pkg, "internal/repl") {
		return nil // the log engine itself sits below the invariant
	}
	g := framework.NewSummaries(pass)
	for _, s := range g.Functions() {
		check(pass, g, s)
	}
	return nil
}

type site struct {
	pos  token.Pos
	kind int // sAcquire / sRelease / sAppend / sBarrier / sGatedCall
	what string
}

const (
	sAcquire = iota
	sRelease
	sAppend
	sBarrier
	sGatedCall
)

func check(pass *framework.Pass, g *framework.Summaries, s *framework.Summary) {
	gated := s.Marks.Has(framework.MarkGated)
	var sites []site
	ast.Inspect(s.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			_ = n
			return false
		case *ast.CallExpr:
			if name, ok := framework.GateMethod(pass.TypesInfo, n); ok {
				switch name {
				case "Lock", "RLock":
					sites = append(sites, site{n.Pos(), sAcquire, "gate." + name})
				case "Unlock", "RUnlock":
					sites = append(sites, site{n.Pos(), sRelease, "gate." + name})
				}
				return true
			}
			// An in-package callee with a //rtle:gated (or gate-moving)
			// summary classifies by its contract even when it is also a
			// log-append recognizer — the gated wrapper *is* the append.
			callee := framework.CalleeFunc(pass.TypesInfo, n)
			if callee != nil {
				if cs := g.Summary(callee); cs != nil {
					switch {
					case cs.Marks.Has(framework.MarkGated):
						sites = append(sites, site{n.Pos(), sGatedCall, callee.Name()})
						return true
					case cs.Direct.Has(framework.EffectExclusiveGate):
						sites = append(sites, site{n.Pos(), sAcquire, callee.Name()})
						return true
					case cs.Direct.Has(framework.EffectExclusiveUngate):
						sites = append(sites, site{n.Pos(), sRelease, callee.Name()})
						return true
					}
				}
			}
			if framework.IsLogAppend(pass.TypesInfo, pass.Module, n) {
				sites = append(sites, site{n.Pos(), sAppend, "replication append"})
				return true
			}
			if framework.IsBarrierSeqAccess(pass.TypesInfo, n) {
				sites = append(sites, site{n.Pos(), sBarrier, "barrier-seq (lastSeq) access"})
				return true
			}
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	depth := 0
	for _, e := range sites {
		held := depth > 0
		switch e.kind {
		case sAcquire:
			depth++
		case sRelease:
			if depth > 0 {
				depth--
			}
		case sAppend:
			if !held && !gated {
				pass.Report(e.pos,
					"%s in %s outside a held gate region; log order must equal gate order — append inside the gate, or mark the function //rtle:gated if every caller holds the gates",
					e.what, s.Fn.Name())
			}
		case sBarrier:
			if !held && !gated && !s.Marks.Has(framework.MarkInit) {
				pass.Report(e.pos,
					"%s in %s outside a held gate region; the sync-ack barrier is only meaningful while the shard's gate pins the log tail",
					e.what, s.Fn.Name())
			}
		case sGatedCall:
			if !held && !gated {
				pass.Report(e.pos,
					"call to //rtle:gated %s in %s outside a held gate region; the callee's contract is caller-holds-gates",
					e.what, s.Fn.Name())
			}
		}
	}
}
