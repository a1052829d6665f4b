// Package analysis bundles the rtlevet static-analysis suite: five passes
// that enforce the HTM/TLE instrumentation discipline the paper's refined
// algorithms depend on, plus the serving layer's log-order discipline.
// One un-instrumented word access on a slow path breaks opacity in a way
// runtime checking (internal/check) can only catch probabilistically;
// these passes make the discipline a compile-time property. DESIGN §5.1
// records which mutants of the real tree each pass catches and which
// tests catch them too; gate order and allocation are pinned by tests.
//
// The passes are:
//
//   - txbody: no HTM-unfriendly operations (raw heap access, blocking
//     ops, Go-level synchronization, aggressive allocation) inside
//     hardware-transaction bodies.
//   - abortpath: abort codes from (*htm.Tx).Run — and error returns from
//     this module's APIs — are never silently dropped; every transaction
//     begin has a reachable abort/retry handler.
//   - barrierdiscipline: code reachable from the instrumented slow paths
//     goes through the htm.Tx read/write barriers, and writer metadata is
//     only mutated on the lock-holder path (declared //rtle:lockpath or
//     inherited from an all-lockpath caller set).
//   - loggate: replication-log appends and barrier-seq (lastSeq) accesses
//     happen inside a held gate region, or inside //rtle:gated functions
//     whose call sites all hold the gates.
//   - guardmisuse: elision guards follow the acquire/defer-release shape.
//
// The framework underneath is interprocedural: per-function summaries
// (marks, direct gate effects) over an in-package call graph, and marks
// propagate — //rtle:slowpath forward to everything it calls,
// //rtle:lockpath backward onto helpers all of whose callers hold the
// lock — so annotations live at roots, not at every helper.
//
// Run the suite standalone or as a vet tool:
//
//	go run rtle/cmd/rtlevet ./...
//	go vet -vettool=$(which rtlevet) ./...
//
// # Annotation convention
//
// The analyzers classify function bodies by execution path through //rtle:
// pragma comments rather than brittle name matching. The vocabulary:
//
//	//rtle:speculative
//
// On a function declaration: the body executes inside a hardware
// transaction (fast or slow path). txbody applies in full. Func literals
// passed to (*htm.Tx).Run are classified automatically and need no
// pragma.
//
//	//rtle:slowpath
//
// On a function declaration: the function implements the instrumented
// slow path (RW-TLE/FG-TLE barrier Contexts, and anything they call).
// barrierdiscipline requires the function — and every same-package
// function statically reachable from it — to route all simulated-heap
// access through the htm.Tx barriers. Conflicts with //rtle:lockpath and
// //rtle:init on the same declaration (a parse error, not last-wins: the
// pass skips lock-holder and setup code, so the mark would be inert).
//
//	//rtle:lockpath
//
// On a function declaration: the function only runs while the method's
// fallback lock is held. This is the one path allowed to mutate
// //rtle:meta fields.
//
//	//rtle:init
//
// On a function declaration: single-threaded setup (constructors).
// Metadata stores are allowed; no concurrent reader exists yet.
//
//	//rtle:gated
//
// On a function declaration: the function's contract is caller-holds-
// gates. loggate allows its log appends and barrier-seq accesses, and in
// exchange requires every call site to sit inside a held gate region.
//
//	//rtle:meta
//
// On a struct field: the field is writer metadata of the barrier protocol
// (RW-TLE's write flag and wrote bit, FG-TLE's epoch/orec addresses and
// per-section counters). For mem.Addr fields, barrierdiscipline guards
// Memory.Store/CAS/FetchAdd calls whose address derives from the field;
// for ordinary Go fields it guards direct assignment. Both are only legal
// inside //rtle:lockpath or //rtle:init functions.
//
//	//rtle:engine
//
// Anywhere in a package's comments: the package implements the simulated
// hardware itself (mem, htm, spinlock) and sits below the barrier layer;
// txbody and barrierdiscipline do not apply.
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
