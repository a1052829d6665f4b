package avl

import (
	"testing"
	"testing/quick"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

func newMapT(words int) (*Map, *MapHandle, core.Context) {
	m := mem.New(words)
	mp := NewMap(m)
	return mp, mp.NewHandle(), core.Direct(m)
}

func TestMapPutGet(t *testing.T) {
	_, h, c := newMapT(1 << 14)
	if !h.PutCS(c, 10, 100) {
		t.Fatal("first Put reported update")
	}
	h.AfterPut(true)
	if v, ok := h.GetCS(c, 10); !ok || v != 100 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if h.PutCS(c, 10, 200) {
		t.Fatal("overwrite reported insertion")
	}
	if v, _ := h.GetCS(c, 10); v != 200 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if _, ok := h.GetCS(c, 11); ok {
		t.Fatal("absent key found")
	}
}

func TestMapRemove(t *testing.T) {
	mp, h, c := newMapT(1 << 14)
	for k := uint64(0); k < 30; k++ {
		h.PutCS(c, k, k*2)
		h.AfterPut(true)
	}
	if !h.RemoveCS(c, 15) {
		t.Fatal("remove failed")
	}
	h.AfterRemove(true)
	if _, ok := h.GetCS(c, 15); ok {
		t.Fatal("removed key still present")
	}
	if mp.Len(c) != 29 {
		t.Fatalf("Len = %d", mp.Len(c))
	}
	if err := mp.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestMapRemovePreservesValues(t *testing.T) {
	// Two-children removal copies key AND value from the successor.
	mp, h, c := newMapT(1 << 14)
	for _, k := range []uint64{50, 25, 75, 60, 90} {
		h.PutCS(c, k, k+1000)
		h.AfterPut(true)
	}
	if !h.RemoveCS(c, 50) { // successor is 60
		t.Fatal("remove failed")
	}
	h.AfterRemove(true)
	for _, k := range []uint64{25, 75, 60, 90} {
		if v, ok := h.GetCS(c, k); !ok || v != k+1000 {
			t.Fatalf("key %d -> %d,%v, want %d", k, v, ok, k+1000)
		}
	}
	if err := mp.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestMapFloorCeiling(t *testing.T) {
	_, h, c := newMapT(1 << 14)
	for _, k := range []uint64{10, 20, 30} {
		h.PutCS(c, k, k*10)
		h.AfterPut(true)
	}
	cases := []struct {
		bound       uint64
		floorK      uint64
		floorOK     bool
		ceilK       uint64
		ceilOK      bool
		description string
	}{
		{5, 0, false, 10, true, "below all"},
		{10, 10, true, 10, true, "exact low"},
		{15, 10, true, 20, true, "between"},
		{30, 30, true, 30, true, "exact high"},
		{35, 30, true, 0, false, "above all"},
	}
	for _, tc := range cases {
		k, v, ok := h.FloorCS(c, tc.bound)
		if ok != tc.floorOK || (ok && (k != tc.floorK || v != tc.floorK*10)) {
			t.Errorf("%s: Floor(%d) = %d,%d,%v", tc.description, tc.bound, k, v, ok)
		}
		k, v, ok = h.CeilingCS(c, tc.bound)
		if ok != tc.ceilOK || (ok && (k != tc.ceilK || v != tc.ceilK*10)) {
			t.Errorf("%s: Ceiling(%d) = %d,%d,%v", tc.description, tc.bound, k, v, ok)
		}
	}
}

func TestMapMinMax(t *testing.T) {
	_, h, c := newMapT(1 << 14)
	if _, _, ok := h.MinCS(c); ok {
		t.Fatal("empty map has a min")
	}
	if _, _, ok := h.MaxCS(c); ok {
		t.Fatal("empty map has a max")
	}
	for _, k := range []uint64{42, 7, 99, 13} {
		h.PutCS(c, k, k)
		h.AfterPut(true)
	}
	if k, _, _ := h.MinCS(c); k != 7 {
		t.Fatalf("Min = %d", k)
	}
	if k, _, _ := h.MaxCS(c); k != 99 {
		t.Fatalf("Max = %d", k)
	}
}

func TestMapEntriesSorted(t *testing.T) {
	mp, h, c := newMapT(1 << 16)
	r := rng.NewXoshiro256(3)
	model := map[uint64]uint64{}
	for i := 0; i < 200; i++ {
		k, v := r.Uint64n(500), r.Next()
		h.PutCS(c, k, v)
		h.AfterPut(true)
		model[k] = v
	}
	keys, vals := mp.Entries(c)
	if len(keys) != len(model) {
		t.Fatalf("entries = %d, want %d", len(keys), len(model))
	}
	for i := range keys {
		if i > 0 && keys[i] <= keys[i-1] {
			t.Fatalf("keys not strictly ascending at %d", i)
		}
		if model[keys[i]] != vals[i] {
			t.Fatalf("key %d -> %d, want %d", keys[i], vals[i], model[keys[i]])
		}
	}
}

func TestMapModelRandomOps(t *testing.T) {
	mp, h, c := newMapT(1 << 20)
	model := map[uint64]uint64{}
	r := rng.NewXoshiro256(17)
	for i := 0; i < 15000; i++ {
		k := r.Uint64n(96)
		switch r.Intn(4) {
		case 0:
			v := r.Next()
			_, existed := model[k]
			got := h.PutCS(c, k, v)
			h.AfterPut(got)
			if got == existed {
				t.Fatalf("op %d: Put(%d) inserted=%v, existed=%v", i, k, got, existed)
			}
			model[k] = v
		case 1:
			_, existed := model[k]
			got := h.RemoveCS(c, k)
			h.AfterRemove(got)
			if got != existed {
				t.Fatalf("op %d: Remove(%d) = %v, want %v", i, k, got, existed)
			}
			delete(model, k)
		case 2:
			v, ok := h.GetCS(c, k)
			wv, wok := model[k]
			if ok != wok || v != wv {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, wv, wok)
			}
		default:
			gotK, gotV, ok := h.FloorCS(c, k)
			var wantK uint64
			var wantOK bool
			for mk := range model {
				if mk <= k && (!wantOK || mk > wantK) {
					wantK, wantOK = mk, true
				}
			}
			if ok != wantOK || (ok && (gotK != wantK || gotV != model[wantK])) {
				t.Fatalf("op %d: Floor(%d) = %d,%d,%v want %d,%v", i, k, gotK, gotV, ok, wantK, wantOK)
			}
		}
		if i%1000 == 0 {
			if err := mp.CheckInvariants(c); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if mp.Len(c) != len(model) {
		t.Fatalf("Len = %d, want %d", mp.Len(c), len(model))
	}
}

func TestQuickMapFloorCeilingConsistent(t *testing.T) {
	_, h, c := newMapT(1 << 18)
	r := rng.NewXoshiro256(9)
	for i := 0; i < 128; i++ {
		h.PutCS(c, r.Uint64n(1024), uint64(i))
		h.AfterPut(true)
	}
	f := func(bound uint16) bool {
		b := uint64(bound) % 1024
		fk, _, fok := h.FloorCS(c, b)
		ck, _, cok := h.CeilingCS(c, b)
		// Floor <= bound <= Ceiling when both exist; equality iff the
		// bound is present (then both return it).
		if fok && fk > b {
			return false
		}
		if cok && ck < b {
			return false
		}
		if fok && cok && fk == ck && fk != b {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapNodeRecycling(t *testing.T) {
	mp, h, c := newMapT(1 << 14)
	h.PutCS(c, 1, 1)
	h.AfterPut(true)
	before := mp.set.m.Allocated()
	for i := 0; i < 40; i++ {
		h.RemoveCS(c, 1)
		h.AfterRemove(true)
		h.PutCS(c, 1, uint64(i))
		h.AfterPut(true)
	}
	if grown := mp.set.m.Allocated() - before; grown > 2*mem.WordsPerLine {
		t.Fatalf("heap grew %d words across churn", grown)
	}
}
