package avl_test

import (
	"fmt"

	"rtle/internal/avl"
	"rtle/internal/core"
	"rtle/internal/mem"
)

// ExampleSet demonstrates basic set usage through a synchronization
// method: all shared accesses run inside atomic blocks.
func ExampleSet() {
	m := mem.New(1 << 16)
	method := core.NewFGTLE(m, 64, core.Policy{})
	set := avl.New(m)

	th := method.NewThread()
	h := set.NewHandle()

	fmt.Println(h.Insert(th, 42)) // true: newly inserted
	fmt.Println(h.Insert(th, 42)) // false: duplicate
	fmt.Println(h.Contains(th, 42))
	fmt.Println(h.Remove(th, 42))
	fmt.Println(h.Contains(th, 42))
	// Output:
	// true
	// false
	// true
	// true
	// false
}

// ExampleHandle_RangeCount shows an ordered range query; wide ranges
// overflow the simulated HTM capacity and transparently fall back to the
// lock.
func ExampleHandle_RangeCount() {
	m := mem.New(1 << 18)
	method := core.NewTLE(m, core.Policy{})
	set := avl.New(m)
	th := method.NewThread()
	h := set.NewHandle()
	for k := uint64(0); k < 50; k += 5 {
		h.Insert(th, k)
	}
	fmt.Println(h.RangeCount(th, 10, 30))
	// Output:
	// 5
}
