// Package analysis bundles the repository's static checks: three passes
// that catch what no dynamic test does (DESIGN §5.1 records the mutation
// audit behind each). They run one way, as a test — TestRepoIsClean runs
// the whole suite over the tree under `go test ./...` and fails on any
// diagnostic or stale waiver:
//
//	go test -run TestRepoIsClean ./internal/analysis
//
// The passes are:
//
//   - txbody: no HTM-unfriendly operations (raw heap access, blocking
//     ops, Go-level synchronization, aggressive allocation) inside
//     hardware-transaction bodies — (*htm.Tx).Run closures, elision
//     guards' Do/RDo closures, and //rtle:speculative functions. A raw
//     mem.Memory access there is the paper's unsafe uninstrumented read:
//     it is never subscribed, so no test sees it fail.
//   - abortpath: abort codes from (*htm.Tx).Run — and error returns from
//     this module's APIs — are never silently dropped; every transaction
//     begin has a reachable abort/retry handler.
//   - loggate: replication-log appends and barrier-seq (lastSeq) accesses
//     happen inside a held gate region, or inside //rtle:gated functions
//     whose call sites all hold the gates.
//
// The slow-path barriers themselves are pinned dynamically: every mutant
// of the audit that routes a slow-path access around them fails a test in
// internal/core, internal/guard or internal/check.
//
// # Annotation convention
//
// The passes classify function bodies through //rtle: pragma comments
// rather than brittle name matching. The vocabulary:
//
//	//rtle:speculative
//
// On a function declaration: the body executes inside a hardware
// transaction (fast or slow path). txbody applies in full. Func literals
// passed to (*htm.Tx).Run or a guard's Do/RDo are classified automatically
// and need no pragma.
//
//	//rtle:gated
//
// On a function declaration: the function's contract is caller-holds-
// gates. loggate allows its log appends and barrier-seq accesses, and in
// exchange requires every call site to sit inside a held gate region.
//
//	//rtle:init
//
// On a function declaration: single-threaded setup (constructors).
// loggate lets it touch the barrier sequence outside a gate; no
// concurrent reader exists yet.
//
//	//rtle:engine
//
// Anywhere in a package's comments: the package implements the simulated
// hardware itself (mem, htm, spinlock) and sits below the barrier layer;
// txbody does not apply.
//
//	//rtle:ignore [analyzer] [reason...]
//
// On the flagged line, or on the line directly above it: suppress the
// named analyzer's diagnostics there (all analyzers when no name is
// given). Use it to mark reviewed false positives; the golden tests under
// testdata/ keep at least one suppressed case per analyzer honest.
//
// Test files (_test.go) are exempt from all passes: tests poke internals
// on purpose.
package analysis
