package main

import "testing"

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		// One operation: op ⊃ section ⊃ two bodies (a retry).
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "section", ID: 2, Parent: 1, Start: 10, End: 90},
		{Name: "body", ID: 3, Parent: 2, Start: 20, End: 40},
		{Name: "body", ID: 4, Parent: 2, Start: 50, End: 80},
		// Another whose two children overlap each other and one overruns
		// the parent: [10,60) ∪ [40,130) clipped to [0,100) covers 90.
		{Name: "op", ID: 5, Start: 0, End: 100},
		{Name: "client.do", ID: 6, Parent: 5, Start: 10, End: 60},
		{Name: "client.do", ID: 7, Parent: 5, Start: 40, End: 130},
	}
	st := selfTimes(spans)
	check := func(name string, count int, total, self int64) {
		t.Helper()
		got := st[name]
		if got == nil || got.Count != count || got.Total != total || got.Self != self {
			t.Errorf("%s = %+v, want count %d total %d self %d", name, got, count, total, self)
		}
	}
	check("op", 2, 200, (100-80)+(100-90))
	check("section", 1, 80, 80-(20+30))
	check("body", 2, 50, 50)
	check("client.do", 2, 140, 140)

	// Nested spans account for their root exactly: self times of one
	// operation's tree sum to the op span.
	var tree int64
	for _, s := range selfTimes(spans[:4]) {
		tree += s.Self
	}
	if tree != 100 {
		t.Errorf("self times of a nested tree sum to %d, want the op span, 100", tree)
	}
}

func TestTraceBufDropsWhenFull(t *testing.T) {
	b := newTraceBuf(timeZero, 0, 2)
	i := b.begin("op", 0, "x")
	j := b.begin("section", b.id(i), "x")
	k := b.begin("body", b.id(j), "x")
	if i != 0 || j != 1 || k != -1 || b.dropped != 1 {
		t.Fatalf("begin returned %d, %d, %d with %d dropped; want 0, 1, -1 and 1", i, j, k, b.dropped)
	}
	b.end(k) // ending a dropped span is a no-op
	if b.id(k) != 0 {
		t.Error("a dropped span has an ID")
	}
	if b.id(i) == b.id(j) || b.spans[j].Parent != b.id(i) {
		t.Error("span IDs or parent link wrong")
	}
	other := newTraceBuf(timeZero, 1, 1)
	if other.id(other.begin("op", 0, "x")) == b.id(i) {
		t.Error("two buffers issued the same span ID")
	}
}
