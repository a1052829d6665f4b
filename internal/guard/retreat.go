package guard

import "sync/atomic"

// RetreatConfig tunes a guard's abort-rate-aware retreat. The attempt
// budget bounds retries *within* one atomic block; retreat works across
// blocks: when a decision window shows speculation mostly aborting, the
// guard stops speculating entirely for a span of operations, doubling the
// span while the contention persists and shrinking it while windows stay
// healthy. This is the guard-level analogue of the adaptive integration
// policies the paper cites as orthogonal work (§2, [12][13]), keyed to
// the observed abort *rate* rather than a per-block attempt count.
type RetreatConfig struct {
	// Window is the number of fast/slow attempts per decision window
	// (default 128).
	Window int
	// AbortFraction is the windowed abort fraction (in percent, so the
	// config stays integral) at or above which the guard retreats.
	// Default 70.
	AbortFraction int
	// MinPause and MaxPause bound the pessimistic span, in operations
	// (defaults 64 and 4096). Each consecutive retreat doubles the span
	// up to MaxPause; healthy windows halve it down to MinPause.
	MinPause, MaxPause int
	// Disable turns retreat off (the per-block attempt budget still
	// applies).
	Disable bool
}

func (c RetreatConfig) withDefaults() RetreatConfig {
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.AbortFraction <= 0 {
		c.AbortFraction = 70
	}
	if c.MinPause <= 0 {
		c.MinPause = 64
	}
	if c.MaxPause < c.MinPause {
		c.MaxPause = 4096
		if c.MaxPause < c.MinPause {
			c.MaxPause = c.MinPause
		}
	}
	return c
}

// flushDivisor sets how often a goroutine folds its locally counted
// attempts into the shared window: every Window/flushDivisor attempts. A
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
	cfg   RetreatConfig
	batch int // attempts a gthread accumulates before folding them in

	_      [64]byte
	window atomic.Uint64 // this window's aborts<<32 | attempts: one add per batch
	pause  atomic.Int64  // current retreat span (ops)

	_         [64]byte
	remaining atomic.Int64 // >0: pessimistic ops left in the current retreat
	_         [64]byte
}

func (r *retreat) init(cfg RetreatConfig) {
	r.cfg = cfg.withDefaults()
	r.batch = max(1, r.cfg.Window/flushDivisor)
	r.pause.Store(int64(r.cfg.MinPause))
}

// speculate reports whether the next block may attempt elision, consuming
// one pessimistic operation when the guard is in retreat. The operation
// that drains the retreat records the mode switch back to speculation.
// Counts t still holds from before the verdict are dropped, so they cannot
// weigh on the first window after the retreat.
func (r *retreat) speculate(t *gthread) bool {
	if r.cfg.Disable {
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
	if r.cfg.Disable || total == 0 {
		return
	}
	t.pendAborts += aborted
	t.pendAttempts += total
	if t.pendAttempts < r.batch {
		return
	}
	w := r.window.Add(uint64(t.pendAborts)<<32 | uint64(t.pendAttempts))
	t.pendAborts, t.pendAttempts = 0, 0
	a, n := int64(w>>32), int64(uint32(w))
	if n < int64(r.cfg.Window) {
		return
	}
	// One goroutine wins the reset and applies the window's verdict; the
	// losers' counts fold into the next window.
	if !r.window.CompareAndSwap(w, 0) {
		return
	}
	pause := r.pause.Load()
	if a*100 >= n*int64(r.cfg.AbortFraction) {
		// Speculation is mostly wasted work: retreat, and double the
		// span for the next episode.
		r.remaining.Store(pause)
		if next := pause * 2; next <= int64(r.cfg.MaxPause) {
			r.pause.Store(next)
		}
		t.Rec.ModeSwitch()
		return
	}
	if next := pause / 2; next >= int64(r.cfg.MinPause) {
		r.pause.Store(next)
	}
}
