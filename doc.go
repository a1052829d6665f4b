// Package rtle is a from-scratch Go reproduction of "Refined
// Transactional Lock Elision" (Dice, Kogan, Lev — PPoPP 2016), built on a
// simulated best-effort hardware transactional memory.
//
// # Public API
//
// The root package is the entry point: rtle.New assembles a simulated
// heap and a synchronization method with functional options,
//
//	reg := rtle.NewRegistry()
//	tm, err := rtle.New(rtle.FGTLE,
//		rtle.WithOrecs(256),
//		rtle.WithAttempts(5),
//		rtle.WithLazySubscription(),
//		rtle.WithObserver(reg))
//	th := tm.NewThread()            // one per goroutine
//	th.Atomic(func(c rtle.Context) { ... })
//
// Every synchronization method of the paper's evaluation is an Algorithm
// value: Lock, TLE, HLE, RWTLE, FGTLE, AdaptiveFGTLE, ALE, NOrec and
// RHNOrec. A critical section is one function of a Context; the same body
// runs uninstrumented on the HTM fast path, barrier-instrumented on the
// slow path, and under the lock — the method supplies the barriers,
// exactly the role the libitm ABI plays in the paper's implementation.
// Bodies must route all shared access through the Context and be
// re-executable (aborted speculative runs have no effect).
//
// # Elision guards
//
// For code structured around sync.Mutex rather than worker threads, the
// guard API offers the same elision as drop-in locks: rtle.Mutex (TLE)
// and rtle.RWMutex (RW-TLE) are callable from any goroutine,
//
//	g := rtle.MustNewRWMutex()
//	counter := g.Memory().AllocLines(1)
//	g.Do(func(c rtle.Context) {  // update section: elides
//		c.Write(counter, c.Read(counter)+1)
//	})
//	g.RDo(func(c rtle.Context) { // read-only section: elides, and can
//		_ = c.Read(counter)  // commit while a writing lock holder runs
//	})
//	g.Lock()                     // bracket form: always pessimistic
//	g.Ctx().Write(counter, 0)
//	g.Unlock()
//
// The closure forms speculate with lock subscription, an abort budget,
// and an abort-rate-aware retreat; the bracket forms always take the real
// lock (Go cannot re-execute the code between two calls after a hardware
// abort) and interoperate with the closure forms through that same
// subscription. Guards are assembled by NewMutex/NewRWMutex with the
// same options as New (an option the guard ignores, such as WithOrecs, is
// an error), or derived from a TM (TM.NewMutex, TM.NewRWMutex) to share
// its heap and policy. The txbody check of internal/analysis
// holds Do/RDo bodies to the rules of a hardware transaction's body (no
// raw heap access, blocking, Go synchronization or allocation).
//
// Statistics come in two forms: quiescent per-thread Stats (read after
// workers stop, merged with Stats.Merge) or per-guard Stats, and — when
// WithObserver attaches a Registry — live coherent snapshots readable at
// any moment during a run, with per-path latency histograms,
// path-transition traces, and Prometheus/JSON export (see internal/obs
// and cmd/rtlemon). An observed thread copies its Stats into a slot the
// Registry reads at the end of every atomic block, and times one block in
// 16. On avl_mixed's shape (FG-TLE(256), two threads) observer-on ÷
// observer-off reads 0.95–0.97, against 0.81–0.83 when every event was
// mirrored into atomic counters (three sets each, of 30, 60 and 40
// alternated pairs).
//
// # Repository layout
//
// The repository implements the paper's two contributions — RW-TLE and
// FG-TLE — together with every substrate and baseline the evaluation
// depends on: a word-addressable simulated shared memory with cache-line
// versioning (internal/mem), a TL2-style best-effort HTM with capacity
// limits and abort codes (internal/htm), a subscribable spin lock
// (internal/spinlock), standard TLE, RW-TLE, FG-TLE and adaptive FG-TLE
// (internal/core), the goroutine-callable elision guards behind
// rtle.Mutex and rtle.RWMutex (internal/guard), the NOrec STM and
// RHNOrec hybrid TM baselines
// (internal/norec, internal/rhnorec), the live-observability layer
// (internal/obs), the AVL-tree set, bank-accounts and transaction-safe
// hash-map benchmark structures (internal/avl, internal/bank,
// internal/tmap), a synthetic ccTSA sequence assembler (internal/cctsa),
// and a workload harness computing every statistic the paper plots
// (internal/harness).
//
// See README.md for a tour, DESIGN.md for the architecture and the
// hardware-substitution rationale, and EXPERIMENTS.md for the
// paper-versus-measured record of every figure. The cmd/experiments binary
// regenerates the paper's evaluation and the design ablations, and `make
// experiments` writes its tables into EXPERIMENTS.md; examples/ holds five
// runnable demonstrations of the public API (quickstart, guard, goflag,
// adaptive, addrspace), none of which re-runs a figure.
package rtle
