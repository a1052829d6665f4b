package avl

import (
	"testing"

	"rtle/internal/core"
	"rtle/internal/mem"
)

// FuzzSetOps drives the set with an arbitrary operation tape against a
// model, checking results and structural invariants.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1})
	f.Add([]byte{10, 10, 10, 138, 138, 10})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 512 {
			tape = tape[:512]
		}
		m := mem.New(1 << 18)
		s := New(m)
		h := s.NewHandle()
		c := core.Direct(m)
		model := map[uint64]bool{}
		for i, b := range tape {
			key := uint64(b % 64)
			switch (b >> 6) % 3 {
			case 0:
				got := h.InsertCS(c, key)
				h.AfterInsert(got)
				if got == model[key] {
					t.Fatalf("op %d: Insert(%d) = %v with model %v", i, key, got, model[key])
				}
				model[key] = true
			case 1:
				got := h.RemoveCS(c, key)
				h.AfterRemove(got)
				if got != model[key] {
					t.Fatalf("op %d: Remove(%d) = %v with model %v", i, key, got, model[key])
				}
				delete(model, key)
			default:
				if got := h.FindCS(c, key); got != model[key] {
					t.Fatalf("op %d: Find(%d) = %v with model %v", i, key, got, model[key])
				}
			}
		}
		if err := s.CheckInvariants(c); err != nil {
			t.Fatal(err)
		}
		if s.Size(c) != len(model) {
			t.Fatalf("size %d, want %d", s.Size(c), len(model))
		}
	})
}
