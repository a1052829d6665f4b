package check

import (
	"testing"

	"rtle/internal/core"
	"rtle/internal/mem"
)

type invocation struct {
	op               Op
	arg1, arg2, arg3 uint64
}

func invocations(h *History) []invocation {
	var out []invocation
	for _, e := range h.Events() {
		out = append(out, invocation{e.Op, e.Arg1, e.Arg2, e.Arg3})
	}
	return out
}

// TestOneGeneratorUnderMethodsAndGuards: with one thread and one seed, a
// method and both guard variants are asked for exactly the same operations
// — there is one op generator under RunWorkload and RunGuardWorkload — and,
// single-threaded, answer them identically.
func TestOneGeneratorUnderMethodsAndGuards(t *testing.T) {
	cfg := RunConfig{Threads: 1, OpsPerThread: 400, Seed: 0xFEED}
	for _, kind := range Workloads {
		t.Run(kind, func(t *testing.T) {
			m := mem.New(1 << 18)
			h, model, err := RunWorkload(kind, core.NewLock(m, core.Policy{}), m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			events := h.Events()
			if !CheckLinearizable(model, events) {
				t.Fatal("Lock history not linearizable")
			}
			want := invocations(h)
			seen := map[Op]bool{}
			for _, inv := range want {
				seen[inv.op] = true
			}
			if ops := workloadOps[kind]; len(seen) != 1+len(ops.writes) {
				t.Fatalf("%d operations drew only %v", len(want), seen)
			}
			for _, variant := range guardVariants {
				gm := mem.New(1 << 18)
				gh, _, err := RunGuardWorkload(kind, variant, gm, core.Policy{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := invocations(gh)
				if len(got) != len(want) {
					t.Fatalf("%s recorded %d invocations, Lock %d", variant, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s invocation %d = %+v, Lock's = %+v", variant, i, got[i], want[i])
					}
				}
				for i, e := range gh.Events() {
					if w := events[i]; e.Ret != w.Ret || e.Ok != w.Ok {
						t.Fatalf("%s answered %v(%d) with (%d, %v), Lock with (%d, %v)", variant, e.Op, e.Arg1, e.Ret, e.Ok, w.Ret, w.Ok)
					}
				}
			}
		})
	}
}

// TestBankOfOneAccountRejected: a transfer needs a destination that is not
// its source, so a one-account bank is an error at the entry point, before
// any thread draws an operation (it used to panic in rng.Uint64n(0)).
func TestBankOfOneAccountRejected(t *testing.T) {
	cfg := RunConfig{Threads: 2, OpsPerThread: 10, Seed: 1, Keys: 1}
	m := mem.New(1 << 16)
	if _, _, err := RunWorkload("bank", core.NewLock(m, core.Policy{}), m, cfg); err == nil {
		t.Error("RunWorkload accepted a one-account bank")
	}
	for _, variant := range guardVariants {
		if _, _, err := RunGuardWorkload("bank", variant, mem.New(1<<16), core.Policy{}, cfg); err == nil {
			t.Errorf("RunGuardWorkload over %s accepted a one-account bank", variant)
		}
	}
	// One key is a legal set or map.
	if _, _, err := RunWorkload("set", core.NewLock(m, core.Policy{}), m, cfg); err != nil {
		t.Errorf("one-key set: %v", err)
	}
}
