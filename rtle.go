package rtle

import (
	"fmt"
	"slices"
	"strings"

	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/obs"
)

// This file is the public face of the library: aliases for the execution
// types the internal packages define, an Algorithm enum covering every
// synchronization method in the paper's evaluation, and a functional-options
// constructor that assembles heap + policy + method in one call:
//
//	tm, err := rtle.New(rtle.FGTLE,
//		rtle.WithOrecs(256),
//		rtle.WithAttempts(5),
//		rtle.WithObserver(rtle.NewRegistry()))
//
// The same Option set configures the guards (guard.go), and one scope
// table, optionScope, says which option applies to which algorithm; a
// guard takes exactly the options of the algorithm behind it.
//
// The internal packages stay importable for code that needs the full
// surface (the harness, the benchmarks); the root package is the stable
// entry point examples and downstream code build on.

// Aliases for the core execution types, so user code can stay entirely
// within the rtle package.
type (
	// Context is the access interface critical-section bodies run against.
	Context = core.Context
	// Method is a synchronization algorithm bound to a heap and a lock.
	Method = core.Method
	// Thread executes atomic blocks on behalf of one goroutine.
	Thread = core.Thread
	// Stats holds one thread's quiescent counters (Merge aggregates).
	Stats = core.Stats
	// Policy holds the speculation knobs (assembled by the options).
	Policy = core.Policy
	// Observer hands every thread a slot to publish its Stats into (see
	// WithObserver).
	Observer = core.Observer
	// ThreadObserver is the path-transition hook a thread's slot calls.
	ThreadObserver = core.ThreadObserver
	// Path identifies an execution path (fast, slow, lock, stm).
	Path = core.Path
	// CommitKind identifies the commit bucket of a completed block.
	CommitKind = core.CommitKind
	// Memory is the simulated word-addressable shared heap.
	Memory = mem.Memory
	// Addr addresses a word of simulated memory.
	Addr = mem.Addr
	// HTMConfig configures the simulated hardware (see WithHTM).
	HTMConfig = htm.Config
	// AdaptiveMethod is the concrete adaptive FG-TLE method; obtain it by
	// type-asserting TM.Method after New(AdaptiveFGTLE, ...) to reach
	// CurrentOrecs and InTLEMode.
	AdaptiveMethod = core.AdaptiveFGTLE
	// Registry is the live-metrics registry (see WithObserver and
	// NewRegistry).
	Registry = obs.Registry
	// Snapshot is a coherent point-in-time aggregate of a Registry.
	Snapshot = obs.Snapshot
)

// Execution-path values (Path axis of latency histograms and traces).
const (
	PathFast = core.PathFast
	PathSlow = core.PathSlow
	PathLock = core.PathLock
	PathSTM  = core.PathSTM
)

// WordsPerLine is the simulated cache-line size in words; Memory's
// AllocLines hands out line-aligned blocks in these units.
const WordsPerLine = mem.WordsPerLine

// NewMemory allocates a simulated heap of the given word count.
func NewMemory(words int) *Memory { return mem.New(words) }

// NewRegistry returns a live-metrics Registry whose trace ring holds the
// last 1024 path transitions.
func NewRegistry() *Registry { return obs.NewRegistry(obs.Config{}) }

// Direct returns a Context that accesses m without synchronization, for
// setup and verification code running while no threads are active.
func Direct(m *Memory) Context { return core.Direct(m) }

// Algorithm selects a synchronization method.
type Algorithm int

const (
	// Lock runs every critical section under the spin lock.
	Lock Algorithm = iota
	// TLE is standard transactional lock elision (§2).
	TLE
	// HLE models hardware lock elision: transactional lock acquisition
	// with the lock word inside the read set.
	HLE
	// RWTLE is the read-write refinement (§3): lock holders announce a
	// writing phase, slow-path transactions run read-only sections.
	RWTLE
	// FGTLE is the fine-grained refinement (§4): lock holders acquire
	// ownership records, slow-path transactions subscribe to them.
	FGTLE
	// AdaptiveFGTLE is FG-TLE with a self-tuning orec array (§4.2.1).
	AdaptiveFGTLE
	// ALE models Amalgamated Lock Elision (Afek, Matveev, Moll and Shavit,
	// DISC 2015), the concurrent design §2 contrasts with refined TLE: the
	// hardware fast path is the instrumented one (every write stamps an
	// ownership record), and the lock holder runs as a buffered software
	// section that publishes with a small hardware transaction.
	ALE
	// NOrec is the software-only NOrec STM baseline (§6.2.2).
	NOrec
	// RHNOrec is the reduced-hardware NOrec hybrid TM baseline.
	RHNOrec
)

// String returns the algorithm's evaluation-legend name.
func (a Algorithm) String() string {
	switch a {
	case Lock:
		return "Lock"
	case TLE:
		return "TLE"
	case HLE:
		return "HLE"
	case RWTLE:
		return "RW-TLE"
	case FGTLE:
		return "FG-TLE"
	case AdaptiveFGTLE:
		return "FG-TLE(adaptive)"
	case ALE:
		return "ALE"
	case NOrec:
		return "NOrec"
	case RHNOrec:
		return "RHNOrec"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// config collects what the options assemble. applied records by name the
// options whose presence is checked: the scoped ones, so a constructor can
// reject what its target ignores, and WithMemoryWords, which conflicts
// with WithMemory.
type config struct {
	memory  *Memory
	words   int
	policy  Policy
	orecs   int
	applied []string
}

func (c *config) mark(name string) { c.applied = append(c.applied, name) }

// Option configures New, NewMutex and NewRWMutex (and the TM's guard
// constructors). Each constructor rejects an option its target ignores.
type Option func(*config)

// WithMemory runs the method or guard over an existing heap (so several
// methods, guards or data structures can share one address space).
// Default: a fresh heap.
func WithMemory(m *Memory) Option { return func(c *config) { c.memory = m } }

// WithMemoryWords sizes the heap the constructor allocates when WithMemory
// is not given (the two conflict). Default 1<<20 words: 8 MB of address
// space, resident as touched.
func WithMemoryWords(words int) Option {
	return func(c *config) { c.words = words; c.mark("WithMemoryWords") }
}

// WithAttempts sets the fast-path HTM retry budget (paper default 5).
// Applies to the algorithms with an attempt loop: TLE, RWTLE, FGTLE,
// AdaptiveFGTLE, ALE, and RHNOrec; and to both guards.
func WithAttempts(n int) Option {
	return func(c *config) { c.policy.Attempts = n; c.mark("WithAttempts") }
}

// WithLazySubscription makes slow-path transactions subscribe to the lock
// just before committing (§5). Applies to the algorithms with an
// instrumented slow path: RWTLE, FGTLE, and AdaptiveFGTLE; and to RWMutex.
func WithLazySubscription() Option {
	return func(c *config) { c.policy.LazySubscription = true; c.mark("WithLazySubscription") }
}

// WithAdaptiveAttempts replaces the static retry budget with a per-thread
// AIMD policy seeded by the WithAttempts value. Applies to TLE, RWTLE,
// FGTLE, AdaptiveFGTLE, and ALE; and to both guards.
func WithAdaptiveAttempts() Option {
	return func(c *config) { c.policy.AdaptiveAttempts = true; c.mark("WithAdaptiveAttempts") }
}

// WithObserver has every thread publish its Stats (commits per path,
// aborts per reason, lock-hold time) into o at the end of each atomic
// block, with the latency of one block in 16, readable while the workload
// runs. Pass a *Registry from NewRegistry, then call its Snapshot or
// DeltaSince at any time.
func WithObserver(o Observer) Option { return func(c *config) { c.policy.Observer = o } }

// WithHTM replaces the simulated-HTM configuration wholesale; its
// InterleaveEvery yields every n transactional accesses, so speculation
// windows open on hosts with fewer cores than threads.
func WithHTM(cfg HTMConfig) Option { return func(c *config) { c.policy.HTM = cfg } }

// WithPolicy replaces the assembled Policy wholesale. It is the way to
// wire what has no dedicated option — most notably a fault plan: build a
// Policy, let a fault Director configure it, then pass it here. Options
// after it still apply on top.
func WithPolicy(p Policy) Option { return func(c *config) { c.policy = p } }

// WithOrecs sets the ownership-record count for FGTLE and ALE (a power of
// two in [1, 1<<20]; default 256).
func WithOrecs(n int) Option {
	return func(c *config) { c.orecs = n; c.mark("WithOrecs") }
}

// optionScope lists, for every option whose effect is algorithm-specific,
// the algorithms that consume it, by their legend names. A guard is scoped
// like the algorithm behind it: Mutex like TLE, RWMutex like RW-TLE. A
// constructor rejects an out-of-scope option with a descriptive error
// instead of silently ignoring it; options absent from this table (memory,
// observer, HTM configuration, policy) apply to every target.
// TestNewOptionValidation pins the full matrix.
var optionScope = map[string][]string{
	"WithAttempts":         {"TLE", "RW-TLE", "FG-TLE", "FG-TLE(adaptive)", "ALE", "RHNOrec"},
	"WithAdaptiveAttempts": {"TLE", "RW-TLE", "FG-TLE", "FG-TLE(adaptive)", "ALE"},
	"WithLazySubscription": {"RW-TLE", "FG-TLE", "FG-TLE(adaptive)"},
	"WithOrecs":            {"FG-TLE", "ALE"},
}

// configure applies opts over base (the heap and policy a TM's guard
// starts from; zero for the package-level constructors), rejects options
// alg ignores, and resolves the heap. New and every guard constructor
// build through it; target names the constructed thing in errors (the
// algorithm, or the guard it backs).
func configure(alg Algorithm, target string, base config, opts []Option) (config, error) {
	c := base
	c.words, c.orecs = 1<<20, DefaultOrecs
	for _, opt := range opts {
		opt(&c)
	}
	for _, name := range c.applied {
		if scope, ok := optionScope[name]; ok && !slices.Contains(scope, alg.String()) {
			return config{}, fmt.Errorf("rtle: %s has no effect under %s (applies to %s)",
				name, target, strings.Join(scope, ", "))
		}
	}
	switch {
	case c.memory != nil && slices.Contains(c.applied, "WithMemoryWords"):
		return config{}, fmt.Errorf("rtle: WithMemoryWords conflicts with WithMemory (the supplied heap fixes the size)")
	case c.memory == nil && c.words <= 0:
		return config{}, fmt.Errorf("rtle: memory size %d words is not positive", c.words)
	case c.memory == nil:
		c.memory = mem.New(c.words)
	}
	return c, nil
}

// DefaultOrecs is the orec-array size New uses for FGTLE and ALE when
// WithOrecs is not given (the paper's middle-of-the-sweep configuration).
const DefaultOrecs = 256

// TM is an assembled transactional-memory instance: a heap plus a
// synchronization method over it.
type TM struct {
	m      *Memory
	method Method
	policy Policy
}

// New assembles a heap (unless WithMemory supplies one) and a
// synchronization method of the chosen algorithm over it. An option the
// chosen algorithm ignores (say WithOrecs under plain TLE) is a
// configuration error, not a no-op.
func New(alg Algorithm, opts ...Option) (*TM, error) {
	c, err := configure(alg, alg.String(), config{}, opts)
	if err != nil {
		return nil, err
	}
	name := alg.String()
	if alg == FGTLE || alg == ALE {
		name = fmt.Sprintf("%s(%d)", name, c.orecs)
	}
	method, err := harness.BuildMethod(name, c.memory, c.policy)
	if err != nil {
		return nil, fmt.Errorf("rtle: %w", err)
	}
	return &TM{m: c.memory, method: method, policy: c.policy}, nil
}

// MustNew is New for statically-known configurations; it panics on error.
func MustNew(alg Algorithm, opts ...Option) *TM {
	tm, err := New(alg, opts...)
	if err != nil {
		panic(err)
	}
	return tm
}

// Memory returns the simulated heap (allocate shared data here).
func (tm *TM) Memory() *Memory { return tm.m }

// Method returns the underlying synchronization method; type-assert to the
// concrete type (e.g. *AdaptiveMethod) for algorithm-specific probes.
func (tm *TM) Method() Method { return tm.method }

// Name returns the method's evaluation-legend name (e.g. "FG-TLE(256)").
func (tm *TM) Name() string { return tm.method.Name() }

// NewThread returns a per-goroutine execution handle. Threads must not be
// shared between goroutines.
func (tm *TM) NewThread() Thread { return tm.method.NewThread() }
