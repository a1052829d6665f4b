package server

import (
	"fmt"

	"rtle/internal/avl"
	"rtle/internal/bank"
	"rtle/internal/check"
	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/tmap"
)

// Workloads lists the servable ADT kinds, matching internal/check's
// workload names so a served history checks against the same models.
var Workloads = check.Workloads

// BankInitial is the per-account starting balance the server uses, shared
// with the checker's bank model.
const BankInitial = check.BankInitial

// adt is one shard's served data-structure instance. Exactly one of set,
// mp, bk is non-nil, per kind.
type adt struct {
	kind string
	// keys bounds the global key space (set/map) or account count (bank):
	// it caps the simulated heap the structure can consume and is part of
	// the serving contract (out-of-range arguments are StatusBad).
	keys uint64
	set  *avl.Set
	mp   *tmap.Map
	bk   *bank.Bank
	// local translates a global account id to this shard's Bank index
	// (bank only; unowned accounts hold the unownedAccount sentinel and
	// are rejected loudly by localIdx). Set and map shards span the full
	// key space, so their keys need no translation — ownership is purely
	// the router's hash.
	local []uint32
}

// unownedAccount marks a local-translation slot whose global account
// belongs to another shard: indexing the Bank through it would silently
// read or credit whichever owned account shares the slot value, so
// localIdx treats it as a fatal routing bug instead.
const unownedAccount = ^uint32(0)

// heapWords sizes one shard's simulated heap for kind with the given
// key-space bound, section count (Config.Workers) and method orec count:
// enough lines for every possible key plus per-section spare-node headroom,
// the method's two orec arrays and its other metadata (lock words). Set/map
// shards are sized for the full key space — the hash may route any subset
// of keys to one shard, and simulated words are cheap.
func heapWords(kind string, keys, workers, orecs int) int {
	method := 2*orecs + 1<<16
	switch kind {
	case "bank":
		return keys*mem.WordsPerLine + method
	default:
		return keys*2*mem.WordsPerLine + workers*64*mem.WordsPerLine + method
	}
}

// newADT allocates one shard's instance on m. Structures start empty
// (balances at BankInitial for bank): the linearizability models in
// internal/check begin from the same state. For bank, owned lists the
// global account ids this shard holds, in local index order; set/map pass
// owned nil and span the full key space.
func newADT(kind string, m *mem.Memory, keys int, owned []uint64) (*adt, error) {
	a := &adt{kind: kind, keys: uint64(keys)}
	switch kind {
	case "set":
		a.set = avl.New(m)
	case "map":
		a.mp = tmap.New(m, keys)
	case "bank":
		a.bk = bank.New(m, len(owned), BankInitial)
		a.local = make([]uint32, keys)
		for g := range a.local {
			a.local[g] = unownedAccount
		}
		for idx, g := range owned {
			a.local[g] = uint32(idx)
		}
	default:
		return nil, fmt.Errorf("server: unknown workload %q (want set, map, or bank)", kind)
	}
	return a, nil
}

// validate checks one operation against the serving contract before it is
// admitted: the op must belong to the served ADT and its arguments must be
// inside the configured key/account space (unbounded keys would let a
// client exhaust the simulated heap).
func (a *adt) validate(op Op, a1, a2 uint64) error {
	switch a.kind {
	case "set":
		switch op {
		case check.OpContains, check.OpInsert, check.OpRemove:
			if a1 >= a.keys {
				return fmt.Errorf("key %d outside the served key space [0,%d)", a1, a.keys)
			}
			return nil
		}
	case "map":
		switch op {
		case check.OpGet, check.OpPut, check.OpDelete, check.OpAdd:
			if a1 >= a.keys {
				return fmt.Errorf("key %d outside the served key space [0,%d)", a1, a.keys)
			}
			return nil
		}
	case "bank":
		switch op {
		case check.OpBalance:
			if a1 >= a.keys {
				return fmt.Errorf("account %d outside [0,%d)", a1, a.keys)
			}
			return nil
		case check.OpTransfer:
			if a1 >= a.keys || a2 >= a.keys {
				return fmt.Errorf("account pair (%d,%d) outside [0,%d)", a1, a2, a.keys)
			}
			return nil
		}
	}
	return fmt.Errorf("op %v is not served by the %s workload", op, a.kind)
}

// executor is one section's execution state over the shared adt: a handle
// per batch/coalesce slot, because a handle carries exactly one spare node
// and one removed-node record, so every operation of a multi-op atomic
// block needs its own.
type executor struct {
	a    *adt
	setH []*avl.Handle
	mapH []*tmap.Handle
}

// newExecutor returns an executor with slots independent handles. Runs
// once per section when its generation is built; the executor is reused
// for every block.
//
//rtle:init
func (a *adt) newExecutor(slots int) *executor {
	e := &executor{a: a}
	switch a.kind {
	case "set":
		e.setH = make([]*avl.Handle, slots)
		for i := range e.setH {
			e.setH[i] = a.set.NewHandle()
		}
	case "map":
		e.mapH = make([]*tmap.Handle, slots)
		for i := range e.mapH {
			e.mapH[i] = a.mp.NewHandle()
		}
	}
	return e
}

// run executes one operation inside the current atomic block, using slot
// s's handle. Bodies are re-executable: the handles reset their scratch
// state at the top of every *CS call, and the returned Result overwrites
// the caller's slot on every speculative retry.
func (e *executor) run(c core.Context, s int, op Op, a1, a2, a3 uint64) Result {
	switch op {
	case check.OpContains:
		return Result{0, e.setH[s].FindCS(c, a1)}
	case check.OpInsert:
		return Result{0, e.setH[s].InsertCS(c, a1)}
	case check.OpRemove:
		return Result{0, e.setH[s].RemoveCS(c, a1)}
	case check.OpGet:
		v, ok := e.mapH[s].GetCS(c, a1)
		return Result{v, ok}
	case check.OpPut:
		return Result{0, e.mapH[s].PutCS(c, a1, a2)}
	case check.OpDelete:
		return Result{0, e.mapH[s].DeleteCS(c, a1)}
	case check.OpAdd:
		return Result{e.mapH[s].AddCS(c, a1, a2), true}
	case check.OpTransfer:
		return Result{e.a.bk.TransferCS(c, e.a.localIdx(a1), e.a.localIdx(a2), a3), true}
	case check.OpBalance:
		return Result{e.a.bk.BalanceCS(c, e.a.localIdx(a1)), true}
	}
	return Result{}
}

// localIdx translates global account g to this shard's Bank index. Every
// caller sits behind the router, so receiving an account this shard does
// not own is a routing bug; panicking here turns what would otherwise be
// a silent operation on the wrong account into a loud failure.
func (a *adt) localIdx(g uint64) int {
	l := a.local[g]
	if l == unownedAccount {
		panic(fmt.Sprintf("server: account %d routed to a shard that does not own it", g))
	}
	return int(l)
}

// withdrawCS removes up to amount from global account g's balance on this
// shard, returning the amount moved. Cross-shard transfer half; see
// bank.WithdrawCS for the quiescence contract.
func (a *adt) withdrawCS(c core.Context, g, amount uint64) uint64 {
	return a.bk.WithdrawCS(c, a.localIdx(g), amount)
}

// depositCS adds amount to global account g's balance on this shard.
func (a *adt) depositCS(c core.Context, g, amount uint64) {
	a.bk.DepositCS(c, a.localIdx(g), amount)
}

// after finalizes slot s's handle bookkeeping once the atomic block that
// ran op in it has committed (spare-node consumption, removed-node
// recycling — the After* contract of the ADT packages).
func (e *executor) after(s int, op Op, r Result) {
	switch op {
	case check.OpInsert:
		e.setH[s].AfterInsert(r.Ok)
	case check.OpRemove:
		e.setH[s].AfterRemove(r.Ok)
	case check.OpPut, check.OpAdd, check.OpDelete:
		e.mapH[s].Committed()
	}
}
