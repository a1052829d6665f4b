package server

import (
	"testing"

	"rtle/internal/mem"
)

// TestUnownedAccountFailsLoudly pins the ownership sentinel: a bank shard
// asked to translate an account it does not own must panic — a routing
// bug — rather than silently operate on whichever owned account happens
// to sit at Bank index 0.
func TestUnownedAccountFailsLoudly(t *testing.T) {
	const keys, shards = 16, 2
	r := newRouter("bank", shards, keys)
	a, err := newADT("bank", mem.New(heapWords("bank", keys, 1, 0)), keys, r.ownedAccounts(0))
	if err != nil {
		t.Fatal(err)
	}

	// Owned accounts translate to their dense local indices.
	for idx, g := range r.ownedAccounts(0) {
		if got := a.localIdx(g); got != idx {
			t.Errorf("owned account %d translated to %d, want %d", g, got, idx)
		}
	}

	var foreign uint64
	found := false
	for g := uint64(0); g < keys; g++ {
		if r.shardOf(g) != 0 {
			foreign, found = g, true
			break
		}
	}
	if !found {
		t.Fatal("shard 1 owns no accounts; shrink the hash?")
	}
	defer func() {
		if recover() == nil {
			t.Error("localIdx on an unowned account did not panic")
		}
	}()
	a.localIdx(foreign)
}
