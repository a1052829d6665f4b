// Package avl implements the set micro-benchmark of the paper's §6.2: a
// balanced internal binary search tree (AVL), in the style of the
// OpenSolaris/ZFS AVL implementation the paper bases its benchmark on,
// stored entirely in simulated shared memory and accessed through
// core.Context so the same code runs uninstrumented on the HTM fast path,
// instrumented on the slow path, and under the lock.
//
// Each node occupies one cache line (key, left, right, height), making the
// node the conflict-detection unit — as on real hardware, where nodes land
// on distinct lines.
//
// Concurrency protocol: the tree itself is sequential code; all
// synchronization comes from running its operations inside Thread.Atomic
// of some core.Method. Critical-section bodies are re-executable, so all
// per-operation scratch state (path stack, pending allocation, pending
// free) lives in a per-thread Handle and is reset at the top of each body.
package avl

import (
	"fmt"

	"rtle/internal/core"
	"rtle/internal/mem"
)

// Node field offsets within the node's cache line; only a Map's nodes use
// offVal.
const (
	offKey    = 0
	offLeft   = 1
	offRight  = 2
	offHeight = 3
	offVal    = 4
)

// Set is a set of uint64 keys backed by an AVL tree in simulated memory.
type Set struct {
	m    *mem.Memory
	head mem.Addr // word holding the root pointer
}

// New allocates an empty set on m.
func New(m *mem.Memory) *Set {
	return &Set{m: m, head: m.AllocLines(1)}
}

// Memory returns the heap the set lives in.
func (s *Set) Memory() *mem.Memory { return s.m }

// pathEntry records one step of a descent: the node visited, the direction
// taken (false = left), and the node's pre-operation height for the
// early-exit rebalancing check.
type pathEntry struct {
	addr  mem.Addr
	right bool
	oldH  uint64
}

// Handle is the per-thread access handle: scratch buffers plus a private
// node cache. A Handle must not be shared between goroutines.
//
// Node lifecycle: InsertCS draws nodes from the handle's free list (or the
// heap); RemoveCS records the unlinked node, which the wrapper methods
// recycle after the atomic block commits — the simulated analogue of a
// malloc with thread-local caches, which the paper marks transaction_pure.
//
// A Map's nodes are a Set's plus a value word, and a MapHandle runs these
// same bodies: vals says the nodes carry offVal, and val is the value an
// insert in flight stores there.
type Handle struct {
	s        *Set
	path     []pathEntry
	spare    mem.Addr
	freeList []mem.Addr
	// One word for the three flags: two handles are allocated back to back
	// and every operation rewrites path's length, so the struct must not
	// grow past 128 bytes (TestHandleSize).
	usedSpare, res, vals bool
	removed              mem.Addr

	// The wrapper methods' atomic bodies, bound once so a call allocates
	// neither a closure nor an escaping result: they take key (and val)
	// and leave res in the handle.
	key, val                         uint64
	findBody, insertBody, removeBody func(core.Context)
}

// NewHandle returns a fresh per-thread handle.
func (s *Set) NewHandle() *Handle {
	h := &Handle{s: s, path: make([]pathEntry, 0, 64)}
	h.findBody = func(c core.Context) { h.res = h.FindCS(c, h.key) }
	h.insertBody = func(c core.Context) { h.res = h.InsertCS(c, h.key) }
	h.removeBody = func(c core.Context) { h.res = h.RemoveCS(c, h.key) }
	return h
}

// --- Critical-section bodies (compose inside Thread.Atomic) --------------

// FindCS reports whether key is in the set. It must run inside an atomic
// block (or on a quiescent set).
func (h *Handle) FindCS(c core.Context, key uint64) bool {
	cur := mem.Addr(c.Read(h.s.head))
	for cur != mem.Nil {
		k := c.Read(cur + offKey)
		switch {
		case key == k:
			return true
		case key > k:
			cur = mem.Addr(c.Read(cur + offRight))
		default:
			cur = mem.Addr(c.Read(cur + offLeft))
		}
	}
	return false
}

// InsertCS inserts key, reporting whether the set changed. It must run
// inside an atomic block. On a map's handle it also stores h.val as key's
// value, whether or not key was there.
func (h *Handle) InsertCS(c core.Context, key uint64) bool {
	h.path = h.path[:0]
	h.usedSpare = false
	cur := mem.Addr(c.Read(h.s.head))
	for cur != mem.Nil {
		k := c.Read(cur + offKey)
		if key == k {
			if h.vals {
				c.Write(cur+offVal, h.val)
			}
			return false
		}
		right := key > k
		h.path = append(h.path, pathEntry{cur, right, c.Read(cur + offHeight)})
		cur = mem.Addr(c.Read(cur + childOff(right)))
	}

	n := h.ensureSpare()
	c.Write(n+offKey, key)
	if h.vals {
		c.Write(n+offVal, h.val)
	}
	c.Write(n+offLeft, uint64(mem.Nil))
	c.Write(n+offRight, uint64(mem.Nil))
	c.Write(n+offHeight, 1)
	h.usedSpare = true
	h.attach(c, len(h.path)-1, n)
	h.rebalancePath(c)
	return true
}

// RemoveCS removes key, reporting whether the set changed. The unlinked
// node is recorded in the handle for post-commit recycling.
func (h *Handle) RemoveCS(c core.Context, key uint64) bool {
	h.path = h.path[:0]
	h.removed = mem.Nil

	cur := mem.Addr(c.Read(h.s.head))
	for cur != mem.Nil {
		k := c.Read(cur + offKey)
		if key == k {
			break
		}
		right := key > k
		h.path = append(h.path, pathEntry{cur, right, c.Read(cur + offHeight)})
		cur = mem.Addr(c.Read(cur + childOff(right)))
	}
	if cur == mem.Nil {
		return false
	}

	target := cur
	left := mem.Addr(c.Read(target + offLeft))
	right := mem.Addr(c.Read(target + offRight))
	if left != mem.Nil && right != mem.Nil {
		// Two children: replace the key with the in-order successor's
		// and splice the successor instead (it has no left child).
		h.path = append(h.path, pathEntry{target, true, c.Read(target + offHeight)})
		succ := right
		for {
			l := mem.Addr(c.Read(succ + offLeft))
			if l == mem.Nil {
				break
			}
			h.path = append(h.path, pathEntry{succ, false, c.Read(succ + offHeight)})
			succ = l
		}
		c.Write(target+offKey, c.Read(succ+offKey))
		if h.vals {
			c.Write(target+offVal, c.Read(succ+offVal))
		}
		target = succ
		left = mem.Nil
		right = mem.Addr(c.Read(target + offRight))
	}

	// Splice out target (at most one child).
	child := left
	if child == mem.Nil {
		child = right
	}
	h.attach(c, len(h.path)-1, child)
	h.removed = target
	h.rebalancePath(c)
	return true
}

// --- Wrappers that run the bodies atomically ------------------------------

// Contains runs FindCS in an atomic block on t.
func (h *Handle) Contains(t core.Thread, key uint64) bool {
	h.key = key
	t.Atomic(h.findBody)
	return h.res
}

// Insert runs InsertCS in an atomic block on t and consumes the spare node
// if the committed execution linked it.
func (h *Handle) Insert(t core.Thread, key uint64) bool {
	h.key = key
	t.Atomic(h.insertBody)
	h.AfterInsert(h.res)
	return h.res
}

// Remove runs RemoveCS in an atomic block on t and recycles the unlinked
// node.
func (h *Handle) Remove(t core.Thread, key uint64) bool {
	h.key = key
	t.Atomic(h.removeBody)
	h.AfterRemove(h.res)
	return h.res
}

// AfterInsert finalizes handle bookkeeping after an atomic block that
// called InsertCS committed; pass the committed execution's result.
// Callers composing InsertCS into custom bodies must call it themselves.
func (h *Handle) AfterInsert(inserted bool) {
	if inserted && h.usedSpare {
		h.spare = mem.Nil
	}
}

// AfterRemove is AfterInsert's counterpart for RemoveCS: it recycles the
// node the committed execution unlinked.
func (h *Handle) AfterRemove(removed bool) {
	if removed && h.removed != mem.Nil {
		h.freeList = append(h.freeList, h.removed)
		h.removed = mem.Nil
	}
}

// --- Internals -------------------------------------------------------------

func childOff(right bool) mem.Addr {
	if right {
		return offRight
	}
	return offLeft
}

// ensureSpare returns the handle's pending node, drawing from the free
// list or the heap on first need. Idempotent across re-executions of the
// same atomic body.
func (h *Handle) ensureSpare() mem.Addr {
	if h.spare == mem.Nil {
		if n := len(h.freeList); n > 0 {
			h.spare = h.freeList[n-1]
			h.freeList = h.freeList[:n-1]
		} else {
			h.spare = h.s.m.AllocLines(1)
		}
	}
	return h.spare
}

// attach links child under path[i] (or as the root when i < 0).
func (h *Handle) attach(c core.Context, i int, child mem.Addr) {
	if i < 0 {
		c.Write(h.s.head, uint64(child))
		return
	}
	p := h.path[i]
	c.Write(p.addr+childOff(p.right), uint64(child))
}

func height(c core.Context, n mem.Addr) uint64 {
	if n == mem.Nil {
		return 0
	}
	return c.Read(n + offHeight)
}

// fixHeight recomputes a node's height, writing only on change (the write
// matters: under FG-TLE it costs an orec acquisition).
func fixHeight(c core.Context, n mem.Addr) uint64 {
	hl := height(c, mem.Addr(c.Read(n+offLeft)))
	hr := height(c, mem.Addr(c.Read(n+offRight)))
	nh := max(hl, hr) + 1
	if c.Read(n+offHeight) != nh {
		c.Write(n+offHeight, nh)
	}
	return nh
}

// rotateRight rotates the subtree rooted at n right and returns the new
// subtree root.
func rotateRight(c core.Context, n mem.Addr) mem.Addr {
	l := mem.Addr(c.Read(n + offLeft))
	lr := c.Read(l + offRight)
	c.Write(n+offLeft, lr)
	c.Write(l+offRight, uint64(n))
	fixHeight(c, n)
	fixHeight(c, l)
	return l
}

// rotateLeft rotates the subtree rooted at n left and returns the new
// subtree root.
func rotateLeft(c core.Context, n mem.Addr) mem.Addr {
	r := mem.Addr(c.Read(n + offRight))
	rl := c.Read(r + offLeft)
	c.Write(n+offRight, rl)
	c.Write(r+offLeft, uint64(n))
	fixHeight(c, n)
	fixHeight(c, r)
	return r
}

// balance restores the AVL invariant at n and returns the subtree's
// (possibly new) root.
func balance(c core.Context, n mem.Addr) mem.Addr {
	hl := height(c, mem.Addr(c.Read(n+offLeft)))
	hr := height(c, mem.Addr(c.Read(n+offRight)))
	switch {
	case hl > hr+1:
		l := mem.Addr(c.Read(n + offLeft))
		if height(c, mem.Addr(c.Read(l+offLeft))) < height(c, mem.Addr(c.Read(l+offRight))) {
			c.Write(n+offLeft, uint64(rotateLeft(c, l)))
		}
		return rotateRight(c, n)
	case hr > hl+1:
		r := mem.Addr(c.Read(n + offRight))
		if height(c, mem.Addr(c.Read(r+offRight))) < height(c, mem.Addr(c.Read(r+offLeft))) {
			c.Write(n+offRight, uint64(rotateRight(c, r)))
		}
		return rotateLeft(c, n)
	default:
		fixHeight(c, n)
		return n
	}
}

// rebalancePath walks the recorded descent path bottom-up, rebalancing and
// reattaching subtree roots, stopping early once a subtree's height is
// unchanged from before the operation (no ancestor can be affected then).
func (h *Handle) rebalancePath(c core.Context) {
	for i := len(h.path) - 1; i >= 0; i-- {
		e := h.path[i]
		nr := balance(c, e.addr)
		if nr != e.addr {
			h.attach(c, i-1, nr)
		}
		if height(c, nr) == e.oldH {
			return
		}
	}
}

// RangeCountCS counts the keys in [lo, hi] by in-order traversal. Its read
// set grows with the range, so on HTM large ranges overflow the capacity
// bound and fall back — the workload §1 of the paper motivates refined TLE
// with: a long pessimistic section under which short read-only operations
// can still commit on the slow path. It must run inside an atomic block.
func (h *Handle) RangeCountCS(c core.Context, lo, hi uint64) int {
	return rangeCount(c, mem.Addr(c.Read(h.s.head)), lo, hi)
}

func rangeCount(c core.Context, n mem.Addr, lo, hi uint64) int {
	if n == mem.Nil {
		return 0
	}
	k := c.Read(n + offKey)
	count := 0
	if k > lo {
		count += rangeCount(c, mem.Addr(c.Read(n+offLeft)), lo, hi)
	}
	if k >= lo && k <= hi {
		count++
	}
	if k < hi {
		count += rangeCount(c, mem.Addr(c.Read(n+offRight)), lo, hi)
	}
	return count
}

// RangeCount runs RangeCountCS atomically on t.
func (h *Handle) RangeCount(t core.Thread, lo, hi uint64) int {
	var n int
	t.Atomic(func(c core.Context) { n = h.RangeCountCS(c, lo, hi) })
	return n
}

// --- Whole-set helpers (quiescent or single-threaded use) -----------------

// Size counts the keys via c.
func (s *Set) Size(c core.Context) int {
	return s.sizeRec(c, mem.Addr(c.Read(s.head)))
}

func (s *Set) sizeRec(c core.Context, n mem.Addr) int {
	if n == mem.Nil {
		return 0
	}
	return 1 + s.sizeRec(c, mem.Addr(c.Read(n+offLeft))) + s.sizeRec(c, mem.Addr(c.Read(n+offRight)))
}

// Keys returns the keys in ascending order via c.
func (s *Set) Keys(c core.Context) []uint64 {
	var out []uint64
	s.keysRec(c, mem.Addr(c.Read(s.head)), &out)
	return out
}

func (s *Set) keysRec(c core.Context, n mem.Addr, out *[]uint64) {
	if n == mem.Nil {
		return
	}
	s.keysRec(c, mem.Addr(c.Read(n+offLeft)), out)
	*out = append(*out, c.Read(n+offKey))
	s.keysRec(c, mem.Addr(c.Read(n+offRight)), out)
}

// CheckInvariants verifies BST ordering, stored heights, and AVL balance
// factors across the whole tree, returning a descriptive error on the
// first violation. Intended for tests on a quiescent set.
func (s *Set) CheckInvariants(c core.Context) error {
	_, err := checkRec(c, mem.Addr(c.Read(s.head)), 0, ^uint64(0))
	return err
}

func checkRec(c core.Context, n mem.Addr, lo, hi uint64) (uint64, error) {
	if n == mem.Nil {
		return 0, nil
	}
	k := c.Read(n + offKey)
	if k < lo || k > hi {
		return 0, fmt.Errorf("avl: key %d at node %d outside bounds [%d, %d]", k, n, lo, hi)
	}
	var hl, hr uint64
	var err error
	if l := mem.Addr(c.Read(n + offLeft)); l != mem.Nil {
		if k == 0 {
			return 0, fmt.Errorf("avl: node %d with key 0 has a left child", n)
		}
		if hl, err = checkRec(c, l, lo, k-1); err != nil {
			return 0, err
		}
	}
	if r := mem.Addr(c.Read(n + offRight)); r != mem.Nil {
		if hr, err = checkRec(c, r, k+1, hi); err != nil {
			return 0, err
		}
	}
	h := max(hl, hr) + 1
	if stored := c.Read(n + offHeight); stored != h {
		return 0, fmt.Errorf("avl: node %d (key %d) stores height %d, actual %d", n, k, stored, h)
	}
	if hl > hr+1 || hr > hl+1 {
		return 0, fmt.Errorf("avl: node %d (key %d) unbalanced: left %d right %d", n, k, hl, hr)
	}
	return h, nil
}
