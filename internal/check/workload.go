package check

import (
	"fmt"
	"sync"

	"rtle/internal/avl"
	"rtle/internal/bank"
	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
	"rtle/internal/tmap"
)

// Workloads names the checked ADT workloads: the kinds RunWorkload,
// RunGuardWorkload and NewOpGen accept, and the ones the server serves.
var Workloads = []string{"set", "map", "bank"}

// RunConfig configures one recorded workload run.
type RunConfig struct {
	Threads      int
	OpsPerThread int
	Seed         uint64
	// Keys is the key-space size for set/map and the account count for
	// bank (default 16 / 8).
	Keys int
}

func (c RunConfig) keys(def int) int {
	if c.Keys > 0 {
		return c.Keys
	}
	return def
}

// BankInitial is the per-account starting balance of the bank workload.
const BankInitial = 1000

// workloadOps is the one table of what each workload kind draws: its read
// operation, its write operations (equally likely), and the read share and
// default key-space size of the in-process runs.
var workloadOps = map[string]struct {
	read    Op
	writes  []Op
	readPct int
	keys    int
}{
	"set":  {OpContains, []Op{OpInsert, OpRemove}, 40, 16},
	"map":  {OpGet, []Op{OpPut, OpAdd, OpDelete}, 30, 16},
	"bank": {OpBalance, []Op{OpTransfer}, 30, 8},
}

// OpGen draws the operations of one workload kind: the in-process recorded
// workloads and the wire load generator all issue what Draw returns.
type OpGen struct {
	read    Op
	writes  []Op
	keys    uint64
	readPct int
	key     func(*rng.Xoshiro256) uint64
}

// NewOpGen returns the generator for kind ("set", "map" or "bank") over a
// key space — for bank, an account count — of keys, drawing reads readPct
// percent of the time and keys (a transfer's source account) from key, which
// must return a value below keys. A bank needs two accounts: a transfer's
// destination is drawn among the accounts that are not its source.
func NewOpGen(kind string, keys uint64, readPct int, key func(*rng.Xoshiro256) uint64) (OpGen, error) {
	ops, ok := workloadOps[kind]
	if !ok {
		return OpGen{}, fmt.Errorf("check: unknown workload %q", kind)
	}
	need := uint64(1)
	if kind == "bank" {
		need = 2
	}
	if keys < need {
		return OpGen{}, fmt.Errorf("check: workload %q needs at least %d keys, got %d", kind, need, keys)
	}
	return OpGen{read: ops.read, writes: ops.writes, keys: keys, readPct: readPct, key: key}, nil
}

// Draw returns the next operation and its arguments, laid out as Event's.
func (g *OpGen) Draw(r *rng.Xoshiro256) (op Op, arg1, arg2, arg3 uint64) {
	read := r.Intn(100) < g.readPct
	arg1 = g.key(r)
	if read {
		return g.read, arg1, 0, 0
	}
	switch op = g.writes[r.Intn(len(g.writes))]; op {
	case OpPut:
		arg2 = r.Uint64n(1 << 20)
	case OpAdd:
		arg2 = 1 + r.Uint64n(9)
	case OpTransfer:
		// Uniform among the other accounts, so from != to whatever
		// distribution the source follows.
		arg2 = (arg1 + 1 + r.Uint64n(g.keys-1)) % g.keys
		arg3 = 1 + r.Uint64n(100)
	}
	return op, arg1, arg2, arg3
}

// section runs one critical section of a recorded workload on the calling
// thread: the i-th of that thread, mutating or read-only.
type section func(i int, write bool, body func(core.Context))

// RunWorkload executes the named ADT workload ("set", "map", or "bank")
// over method — which must have been built over m, where the structure is
// allocated too — recording every operation. It returns the history and
// the sequential model to check it against.
func RunWorkload(kind string, method core.Method, m *mem.Memory, cfg RunConfig) (*History, Model, error) {
	return runRecorded(kind, m, cfg, func() section {
		t := method.NewThread()
		return func(_ int, _ bool, body func(core.Context)) { t.Atomic(body) }
	})
}

// runRecorded is the recorded workload itself: it allocates kind's structure
// on m and has cfg.Threads goroutines each draw cfg.OpsPerThread operations
// from one OpGen, run each one's *CS body in a section from its own
// newSection() — called on the thread's goroutine — and do the handle's
// post-commit step once the section has returned.
func runRecorded(kind string, m *mem.Memory, cfg RunConfig, newSection func() section) (*History, Model, error) {
	keys := cfg.keys(workloadOps[kind].keys)
	gen, err := NewOpGen(kind, uint64(keys), workloadOps[kind].readPct,
		func(r *rng.Xoshiro256) uint64 { return r.Uint64n(uint64(keys)) })
	if err != nil {
		return nil, Model{}, err
	}
	var (
		set   *avl.Set
		mp    *tmap.Map
		bk    *bank.Bank
		model Model
	)
	switch kind {
	case "set":
		set, model = avl.New(m), SetModel()
	case "map":
		mp, model = tmap.New(m, keys), MapModel()
	case "bank":
		bk, model = bank.New(m, keys, BankInitial), BankModel(keys, BankInitial)
	}
	return runThreads(cfg, func(rec *ThreadRecorder, r *rng.Xoshiro256) {
		run := newSection()
		var sh *avl.Handle
		var mh *tmap.Handle
		switch kind {
		case "set":
			sh = set.NewHandle()
		case "map":
			mh = mp.NewHandle()
		}
		for i := 0; i < cfg.OpsPerThread; i++ {
			op, a1, a2, a3 := gen.Draw(r)
			rec.Invoke(op, a1, a2, a3)
			ret, ok := uint64(0), true
			switch op {
			case OpContains:
				run(i, false, func(c core.Context) { ok = sh.FindCS(c, a1) })
			case OpInsert:
				run(i, true, func(c core.Context) { ok = sh.InsertCS(c, a1) })
				sh.AfterInsert(ok)
			case OpRemove:
				run(i, true, func(c core.Context) { ok = sh.RemoveCS(c, a1) })
				sh.AfterRemove(ok)
			case OpGet:
				run(i, false, func(c core.Context) { ret, ok = mh.GetCS(c, a1) })
			case OpPut:
				run(i, true, func(c core.Context) { ok = mh.PutCS(c, a1, a2) })
				mh.Committed()
			case OpAdd:
				run(i, true, func(c core.Context) { ret = mh.AddCS(c, a1, a2) })
				mh.Committed()
			case OpDelete:
				run(i, true, func(c core.Context) { ok = mh.DeleteCS(c, a1) })
				mh.Committed()
			case OpTransfer:
				run(i, true, func(c core.Context) { ret = bk.TransferCS(c, int(a1), int(a2), a3) })
			case OpBalance:
				run(i, false, func(c core.Context) { ret = bk.BalanceCS(c, int(a1)) })
			}
			rec.Return(ret, ok)
		}
	}), model, nil
}

// runThreads spawns cfg.Threads goroutines, each with its own recorder and
// PRNG stream, and waits for them.
func runThreads(cfg RunConfig, worker func(*ThreadRecorder, *rng.Xoshiro256)) *History {
	n := cfg.Threads
	if n <= 0 {
		n = 1
	}
	h := NewHistory(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker(h.Recorder(i),
				rng.NewXoshiro256(cfg.Seed+uint64(i)*0x9e3779b97f4a7c15+1))
		}(i)
	}
	wg.Wait()
	return h
}
