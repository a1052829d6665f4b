package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rtle"
	"rtle/internal/avl"
	"rtle/internal/check"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/repl"
	"rtle/internal/rng"
	"rtle/internal/server"
	"rtle/internal/snap"
	"rtle/internal/tmap"
)

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink uint64

// probe times fn(calls) over several spans, one thread, and returns the
// median span's ns per call. A span is at least 2^16 calls unless the call
// itself is a syscall (file append), so timer cost and jitter vanish.
func probe(cfg *runConfig, calls int, fn func(n int)) float64 {
	spans := 7
	if cfg.quick {
		spans, calls = 3, calls/16
	}
	fn(calls / 4) // warm caches and lazily built state
	per := make([]float64, spans)
	for i := range per {
		t0 := time.Now()
		fn(calls)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

// runProbes measures each layer's exported entry points in isolation.
// They do not depend on the workload; every traced run repeats them so
// every result file carries the per-access and per-section floor its
// workload numbers sit on.
func runProbes(cfg *runConfig, layer map[string]float64) error {
	const n = 1 << 16
	m := mem.New(1 << 20)
	lines := make([]mem.Addr, 32)
	for i := range lines {
		lines[i] = m.AllocLines(1)
	}

	// mem: one uninstrumented load and store.
	layer["mem.load_ns"] = probe(cfg, 4*n, func(k int) {
		var s uint64
		for i := 0; i < k; i++ {
			s += m.Load(lines[i&31])
		}
		probeSink += s
	})
	layer["mem.store_ns"] = probe(cfg, 4*n, func(k int) {
		for i := 0; i < k; i++ {
			m.Store(lines[i&31], uint64(i))
		}
	})

	// htm: a whole transaction, begin to commit.
	tx := htm.NewTx(m, htm.Config{})
	aborted := 0
	txProbe := func(reads, writes int) float64 {
		return probe(cfg, n, func(k int) {
			for i := 0; i < k; i++ {
				reason := tx.Run(func(tx *htm.Tx) {
					var s uint64
					for r := 0; r < reads; r++ {
						s += tx.Read(lines[r])
					}
					for w := 0; w < writes; w++ {
						tx.Write(lines[16+w], s)
					}
				})
				if reason != htm.None {
					aborted++
				}
			}
		})
	}
	layer["htm.tx_ro_ns"] = txProbe(1, 0)
	layer["htm.tx_rw_ns"] = txProbe(1, 1)
	layer["htm.tx_wide_ns"] = txProbe(16, 4)
	if aborted > 0 {
		return fmt.Errorf("htm probe: %d uncontended transactions aborted", aborted)
	}

	// core: the fixed cost of one section, under the served method, under
	// plain TLE and under the lock.
	for _, p := range []struct{ key, method string }{
		{"core.atomic_ro_ns", serverMethod}, {"core.atomic_ro_ns_tle", "TLE"}, {"core.atomic_ro_ns_lock", "Lock"},
	} {
		heap := mem.New(1 << 16)
		method, err := harness.BuildMethod(p.method, heap, core.Policy{})
		if err != nil {
			return err
		}
		t := method.NewThread()
		a := heap.AllocLines(1)
		layer[p.key] = probe(cfg, n, func(k int) {
			var s uint64
			body := func(c core.Context) { s = c.Read(a) }
			for i := 0; i < k; i++ {
				t.Atomic(body)
			}
			probeSink += s
		})
	}

	// avl, tmap: the data structures with no method at all.
	const keys = 8192
	set := avl.New(m)
	harness.SeedSet(set, keys)
	h := set.NewHandle()
	direct := core.Direct(m)
	r := rng.NewXoshiro256(cfg.seed)
	layer["avl.find_direct_ns"] = probe(cfg, n, func(k int) {
		for i := 0; i < k; i++ {
			if h.FindCS(direct, r.Uint64n(keys)) {
				probeSink++
			}
		}
	})
	layer["avl.update_direct_ns"] = probe(cfg, n, func(k int) {
		for i := 0; i < k; i++ {
			key := r.Uint64n(keys)
			if i&1 == 0 {
				h.AfterInsert(h.InsertCS(direct, key))
			} else {
				h.AfterRemove(h.RemoveCS(direct, key))
			}
		}
	})
	if err := set.CheckInvariants(direct); err != nil {
		return fmt.Errorf("avl probe corrupted its set: %w", err)
	}
	tm := tmap.New(m, wireKeys)
	th := tm.NewHandle()
	for k := uint64(0); k < wireKeys; k++ {
		if seededHalf(k) {
			th.PutDirect(direct, k, k+1)
		}
	}
	layer["tmap.get_direct_ns"] = probe(cfg, n, func(k int) {
		for i := 0; i < k; i++ {
			v, _ := th.GetCS(direct, r.Uint64n(wireKeys))
			probeSink += v
		}
	})

	// guard: one uncontended write and read section through the public API.
	g, err := rtle.NewRWMutex()
	if err != nil {
		return err
	}
	counters := newCounters(g.Memory())
	layer["guard.do_ns"] = probe(cfg, n, func(k int) {
		body := func(c core.Context) { c.Write(counters[0], c.Read(counters[0])+1) }
		for i := 0; i < k; i++ {
			g.Do(body)
		}
	})
	layer["guard.rdo_ns"] = probe(cfg, n, func(k int) {
		var s uint64
		body := func(c core.Context) {
			s = 0
			for j := 0; j < guardReadSpan; j++ {
				s += c.Read(counters[j])
			}
		}
		for i := 0; i < k; i++ {
			g.RDo(body)
		}
		probeSink += s
	})

	// server: both directions of the codec for one get.
	var reqBuf, respBuf []byte
	var res [1]server.Result
	var codecErr error
	layer["server.codec_ns"] = probe(cfg, n, func(k int) {
		for i := 0; i < k; i++ {
			reqBuf = server.AppendRequest(reqBuf[:0], &server.Request{ID: uint32(i), Op: check.OpGet, Arg1: uint64(i)})
			req, err := server.DecodeRequest(reqBuf[4:])
			if err != nil {
				codecErr = err
			}
			respBuf = server.AppendResponse(respBuf[:0], &server.Response{ID: req.ID, Results: []server.Result{{Ret: req.Arg1, Ok: true}}})
			if _, err := server.DecodeResponseInto(respBuf[4:], res[:]); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return fmt.Errorf("codec probe: %w", codecErr)
	}

	// repl: appending one single-op block to the memory log, and to the
	// file-mirrored log (a write syscall per append, no fsync).
	ops := []repl.Op{{Code: uint8(check.OpPut), Arg1: 1, Arg2: 2}}
	mlog, err := repl.Open("")
	if err != nil {
		return err
	}
	layer["repl.append_ns"] = probe(cfg, n, func(k int) {
		for i := 0; i < k; i++ {
			probeSink += mlog.Append(ops)
		}
	})
	dir, err := os.MkdirTemp(cfg.outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	flog, err := repl.Open(filepath.Join(dir, "repl.log"))
	if err != nil {
		return err
	}
	layer["repl.file_append_us"] = probe(cfg, n/8, func(k int) {
		for i := 0; i < k; i++ {
			probeSink += flog.Append(ops)
		}
	}) / 1e3
	if err := flog.Err(); err != nil {
		return fmt.Errorf("file log probe: %w", err)
	}
	if err := flog.Close(); err != nil {
		return fmt.Errorf("file log probe: %w", err)
	}

	// snap: encoding a server-sized snapshot, per item.
	sn := &snap.Snapshot{Workload: "map", Keys: wireKeys, Shards: make([][]snap.Item, 2)}
	for k := uint64(0); k < wireKeys; k++ {
		sn.Shards[k&1] = append(sn.Shards[k&1], snap.Item{Key: k, Val: k + 1})
	}
	var snapErr error
	layer["snap.encode_ns_per_item"] = probe(cfg, 64, func(k int) {
		for i := 0; i < k; i++ {
			w := snap.NewWriter(func(p []byte) error { probeSink += uint64(len(p)); return nil })
			if err := snap.Encode(w, sn); err != nil {
				snapErr = err
			}
		}
	}) / wireKeys
	if snapErr != nil {
		return fmt.Errorf("snapshot probe: %w", snapErr)
	}
	return nil
}
