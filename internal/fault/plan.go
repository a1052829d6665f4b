// Package fault is the deterministic fault-injection subsystem: it drives
// the htm.Injector and core.LockFaultHook hooks from a compact, loggable,
// replayable Plan, turning the simulation's advantage over real RTM — we
// can decide when the "hardware" fails — into reproducible adversity.
//
// A Plan describes a whole fault schedule as a handful of scalar rules:
// probabilistic aborts at the three injection points (begin, per access,
// pre-commit), a deterministic "kill the Nth access of every Kth attempt"
// rule, periodic capacity squeezes, synchronized conflict storms (every
// thread's begin fails inside the same global window — the lemming-effect
// trigger), and lock-holder latency spikes. Because the Plan is plain data,
// a failing schedule is logged as one JSON line and replays exactly; and
// because it is a handful of bounded scalars, a fuzzer (check.FuzzFaultPlan)
// can derive one from a few bytes and its minimizer can switch rules off.
//
// Determinism: probabilistic decisions come from per-thread xoshiro256**
// streams derived from Plan.Seed and a thread ordinal assigned in injector
// creation order, so each thread's decision sequence is a pure function of
// the plan. Window rules (storms, squeezes) count attempts on a shared
// atomic, which synchronizes threads against each other — that cross-thread
// interleaving is scheduler-dependent, exactly like the conflicts it is
// designed to provoke.
package fault

import (
	"encoding/json"
	"fmt"

	"rtle/internal/htm"
)

// Plan is a complete, replayable fault schedule. The zero value injects
// nothing. All probabilities are per decision point in [0, 1].
type Plan struct {
	// Seed derives the per-thread decision streams.
	Seed uint64 `json:"seed"`

	// BeginProb aborts an attempt at transaction begin; AccessProb
	// aborts before a transactional access; CommitProb aborts after the
	// body, before commit processing. Reason is the abort reason used
	// for these probabilistic faults (default Spurious).
	BeginProb  float64         `json:"begin_prob,omitempty"`
	AccessProb float64         `json:"access_prob,omitempty"`
	CommitProb float64         `json:"commit_prob,omitempty"`
	Reason     htm.AbortReason `json:"reason,omitempty"`

	// NthAccess, when positive, aborts the NthAccess-th (1-based)
	// transactional access with NthReason (default Conflict) on every
	// NthEvery-th attempt of each thread (default every attempt). This
	// is the surgical rule: "the 7th read of every 3rd attempt dies".
	NthAccess int             `json:"nth_access,omitempty"`
	NthEvery  int             `json:"nth_every,omitempty"`
	NthReason htm.AbortReason `json:"nth_reason,omitempty"`

	// SqueezeEvery, when positive, opens a capacity-squeeze window of
	// SqueezeLen attempts (default 1) every SqueezeEvery attempts
	// (counted globally across threads): attempts beginning inside the
	// window run with their effective read/write-set limits shrunk to
	// SqueezeReadLines/SqueezeWriteLines (0 keeps the configured
	// limit). This models dynamic capacity loss — SMT siblings, cache
	// pollution — that static Config bounds cannot.
	SqueezeEvery      int `json:"squeeze_every,omitempty"`
	SqueezeLen        int `json:"squeeze_len,omitempty"`
	SqueezeReadLines  int `json:"squeeze_read_lines,omitempty"`
	SqueezeWriteLines int `json:"squeeze_write_lines,omitempty"`

	// StormEvery, when positive, opens a conflict storm of StormLen
	// begin-aborts (default 1) every StormEvery attempts (counted
	// globally): every attempt beginning inside the window aborts with
	// Conflict regardless of thread. Concurrent threads fall into the
	// same window together, which is precisely the synchronized abort
	// volley that provokes the lemming effect (all threads pile onto
	// the lock at once).
	StormEvery int `json:"storm_every,omitempty"`
	StormLen   int `json:"storm_len,omitempty"`

	// LockSpikeEvery, when positive, stretches every LockSpikeEvery-th
	// lock acquisition (counted globally) by LockSpikeSpins busy-work
	// iterations — a lock holder that suddenly goes slow, the regime
	// the paper's refined slow paths exist to survive.
	LockSpikeEvery int `json:"lock_spike_every,omitempty"`
	LockSpikeSpins int `json:"lock_spike_spins,omitempty"`
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.txFaults() || p.LockSpikeEvery > 0
}

// txFaults reports whether the plan has a rule a transaction's injector
// acts on: everything but lock spikes.
func (p Plan) txFaults() bool {
	return p.BeginProb > 0 || p.AccessProb > 0 || p.CommitProb > 0 ||
		p.NthAccess > 0 || p.SqueezeEvery > 0 || p.StormEvery > 0
}

// reason returns the probabilistic-fault reason, defaulting to Spurious.
func (p Plan) reason() htm.AbortReason {
	if p.Reason != htm.None {
		return p.Reason
	}
	return htm.Spurious
}

// nthReason returns the Nth-access fault reason, defaulting to Conflict.
func (p Plan) nthReason() htm.AbortReason {
	if p.NthReason != htm.None {
		return p.NthReason
	}
	return htm.Conflict
}

func (p Plan) nthEvery() int {
	if p.NthEvery > 0 {
		return p.NthEvery
	}
	return 1
}

func (p Plan) squeezeLen() int {
	if p.SqueezeLen > 0 {
		return p.SqueezeLen
	}
	return 1
}

func (p Plan) stormLen() int {
	if p.StormLen > 0 {
		return p.StormLen
	}
	return 1
}

// String renders the plan as its compact JSON form — the representation
// logged next to failures and accepted back by ParsePlan.
func (p Plan) String() string {
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprintf("fault.Plan{unmarshalable: %v}", err)
	}
	return string(b)
}

// ParsePlan decodes a plan from its JSON form (Plan.String output).
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if err := json.Unmarshal([]byte(s), &p); err != nil {
		return Plan{}, fmt.Errorf("fault: bad plan %q: %w", s, err)
	}
	return p, nil
}
