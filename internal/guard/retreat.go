package guard

import "sync/atomic"

// A guard's abort-rate-aware retreat. The attempt budget bounds retries
// *within* one atomic block; retreat works across blocks: when a decision
// window shows speculation mostly aborting, the guard stops speculating
// entirely for a span of operations, doubling the span while the
// contention persists and shrinking it while windows stay healthy. This is
// the guard-level analogue of the adaptive integration policies the paper
// cites as orthogonal work (§2, [12][13]), keyed to the observed abort
// *rate* rather than a per-block attempt count.
const (
	retreatWindow       = 128  // fast/slow attempts per decision window
	retreatAbortPercent = 70   // windowed abort share, in percent, at or above which the guard retreats
	retreatMinPause     = 64   // the shortest pessimistic span, in operations
	retreatMaxPause     = 4096 // the longest: each consecutive retreat doubles the span up to here, healthy windows halve it
)

// flushDivisor sets how often a goroutine folds its locally counted
// attempts into the shared window: every window/flushDivisor attempts. A
// verdict can therefore lag the window boundary by one batch per goroutine.
const flushDivisor = 8

// retreat is the windowed abort-rate controller. The shared fields are
// atomics: any goroutine inside the guard may tick it, and the occasional
// lost update only perturbs a heuristic, never correctness.
//
// Sections count into their borrowed gthread and reach the window counters
// once per batch, and remaining — which every section loads — sits on a
// line of its own that is written only while the guard retreats. A guard
// whose speculation is healthy thus writes no shared line per section.
type retreat struct {
	// The controller's settings. init sets the constants above; a test
	// that needs a shorter window or a fixed pause sets them before the
	// guard's first section and calls reset, and BenchmarkRetreat's off
	// cell sets off.
	window, abortPercent, minPause, maxPause int
	off                                      bool

	batch int // attempts a gthread accumulates before folding them in

	_      [64]byte
	counts atomic.Uint64 // this window's aborts<<32 | attempts: one add per batch
	pause  atomic.Int64  // current retreat span (ops)

	_         [64]byte
	remaining atomic.Int64 // >0: pessimistic ops left in the current retreat
	_         [64]byte
}

func (r *retreat) init() {
	r.window, r.abortPercent = retreatWindow, retreatAbortPercent
	r.minPause, r.maxPause = retreatMinPause, retreatMaxPause
	r.reset()
}

// reset derives the batch and the starting pause from the settings.
func (r *retreat) reset() {
	r.batch = max(1, r.window/flushDivisor)
	r.pause.Store(int64(r.minPause))
}

// speculate reports whether the next block may attempt elision, consuming
// one pessimistic operation when the guard is in retreat. The operation
// that drains the retreat records the mode switch back to speculation.
// Counts t still holds from before the verdict are dropped, so they cannot
// weigh on the first window after the retreat.
func (r *retreat) speculate(t *gthread) bool {
	if r.off {
		return true
	}
	for {
		left := r.remaining.Load()
		if left <= 0 {
			return true
		}
		if r.remaining.CompareAndSwap(left, left-1) {
			t.pendAborts, t.pendAttempts = 0, 0
			if left == 1 {
				t.Rec.ModeSwitch()
			}
			return false
		}
	}
}

// record counts one finished block's attempts in t and, once t holds a
// batch, folds the batch into the current window and, at window
// boundaries, decides whether to retreat. aborted is the number of aborted
// attempts, total the number made.
func (r *retreat) record(t *gthread, aborted, total int) {
	if r.off || total == 0 {
		return
	}
	t.pendAborts += aborted
	t.pendAttempts += total
	if t.pendAttempts < r.batch {
		return
	}
	w := r.counts.Add(uint64(t.pendAborts)<<32 | uint64(t.pendAttempts))
	t.pendAborts, t.pendAttempts = 0, 0
	a, n := int64(w>>32), int64(uint32(w))
	if n < int64(r.window) {
		return
	}
	// One goroutine wins the reset and applies the window's verdict; the
	// losers' counts fold into the next window.
	if !r.counts.CompareAndSwap(w, 0) {
		return
	}
	pause := r.pause.Load()
	if a*100 >= n*int64(r.abortPercent) {
		// Speculation is mostly wasted work: retreat, and double the
		// span for the next episode.
		r.remaining.Store(pause)
		if next := pause * 2; next <= int64(r.maxPause) {
			r.pause.Store(next)
		}
		t.Rec.ModeSwitch()
		return
	}
	if next := pause / 2; next >= int64(r.minPause) {
		r.pause.Store(next)
	}
}
