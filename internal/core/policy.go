package core

// AttemptPolicy decides, per thread, how many fast-path HTM attempts to
// make before falling back to the lock. The paper fixes the budget at 5
// and notes (§2) that dynamic policies — Dice et al.'s adaptive
// integration [12] and Diegues–Romano's self-tuning TSX [13] — are
// orthogonal work; this interface and the AIMD implementation below
// reproduce that orthogonal extension so it can be ablated.
//
// Implementations are per-thread (no synchronization needed).
type AttemptPolicy interface {
	// Budget returns the attempt budget for the next atomic block.
	Budget() int
	// Record reports how the block went: how many fast-path attempts
	// were spent and whether the block eventually committed in HTM
	// (false means it took the lock).
	Record(attempts int, elided bool)
}

// StaticAttempts is the paper's fixed budget.
type StaticAttempts int

// Budget implements AttemptPolicy.
func (s StaticAttempts) Budget() int { return int(s) }

// Record implements AttemptPolicy (no state).
func (s StaticAttempts) Record(int, bool) {}

// AIMDAttempts adapts the budget with additive increase / multiplicative
// decrease, in the spirit of [12, 13]: commits that needed many retries
// raise the budget (retrying pays off); lock fallbacks halve it (retries
// were wasted).
type AIMDAttempts struct {
	Min, Max int
	budget   int
}

// NewAIMDAttempts returns an adaptive policy bounded to [min, max],
// starting at the paper's default of 5 (clamped).
func NewAIMDAttempts(min, max int) *AIMDAttempts {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	start := DefaultAttempts
	if start < min {
		start = min
	}
	if start > max {
		start = max
	}
	return &AIMDAttempts{Min: min, Max: max, budget: start}
}

// Budget implements AttemptPolicy.
func (a *AIMDAttempts) Budget() int { return a.budget }

// Record implements AttemptPolicy.
func (a *AIMDAttempts) Record(attempts int, elided bool) {
	switch {
	case !elided:
		a.budget /= 2
		if a.budget < a.Min {
			a.budget = a.Min
		}
	case attempts+1 >= a.budget && a.budget < a.Max:
		// The commit used the whole budget: one more retry might
		// rescue the next marginal block too.
		a.budget++
	}
}

// attemptPolicyFor materializes the per-thread attempt policy from a
// Policy: the adaptive one when requested, else the static budget.
func attemptPolicyFor(p Policy) AttemptPolicy {
	if p.AdaptiveAttempts {
		return NewAIMDAttempts(1, 4*p.AttemptBudget())
	}
	return StaticAttempts(p.AttemptBudget())
}
