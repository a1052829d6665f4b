package framework

import (
	"go/types"
	"slices"
	"testing"
)

// graphSrc is an import-free package exercising the interprocedural layer:
// a slow-path root whose calls reach a lock-holder cut, and lock-holder
// callers whose private helpers may inherit their context.
const graphSrc = `package p

//rtle:slowpath
func root() {
	mid()
	mid() // a repeated call is one edge
	held()
	func() { viaLit() }()
}

func mid() { leaf() }

func leaf() {}

func viaLit() {}

//rtle:lockpath
func held() { heldLeaf() }

func heldLeaf() {}

//rtle:lockpath
func lockA() {
	helper()
	mixed()
	taken()
	_ = taken // value use: address taken, so taken is callable from anywhere
}

//rtle:lockpath
func lockB() {
	helper()
	chainTop()
	spec()
}

func open() { mixed() }

func helper() {}

func mixed() {}

func taken() {}

func chainTop() { chainMid() }

func chainMid() {}

//rtle:speculative
func spec() {}

func Pub() {}

//rtle:lockpath
func callsPub() { Pub() }
`

// buildGraph runs NewGraph through a fake analyzer so the Pass carries
// parsed annotations, and returns the graph plus a name→summary index.
func buildGraph(t *testing.T, src string) (*Graph, map[string]*Summary) {
	t.Helper()
	pkg := checkSource(t, "p.go", src)
	var g *Graph
	fake := &Analyzer{
		Name: "fake",
		Doc:  "captures the call graph",
		Run: func(pass *Pass) error {
			g = NewGraph(pass)
			return nil
		},
	}
	if _, err := RunAnalyzer(fake, pkg); err != nil {
		t.Fatalf("RunAnalyzer: %v", err)
	}
	byName := map[string]*Summary{}
	for _, s := range g.Functions() {
		byName[s.Fn.Name()] = s
	}
	return g, byName
}

func TestGraphCallees(t *testing.T) {
	_, fns := buildGraph(t, graphSrc)

	var got []string
	for _, fn := range fns["root"].Callees {
		got = append(got, fn.Name())
	}
	if want := []string{"mid", "held", "viaLit"}; !slices.Equal(got, want) {
		t.Errorf("root callees = %v, want %v: deduplicated, in source order, closures included", got, want)
	}
	if got := len(fns["leaf"].Callees); got != 0 {
		t.Errorf("leaf has %d callees, want 0", got)
	}
}

func TestMarkReachable(t *testing.T) {
	g, fns := buildGraph(t, graphSrc)
	g.MarkReachable(MarkSlowpath, MarkLockpath|MarkInit)

	for _, name := range []string{"root", "mid", "leaf", "viaLit"} {
		if !fns[name].Marks.Has(MarkSlowpath) {
			t.Errorf("%s not marked slowpath; want it via forward propagation", name)
		}
	}
	if fns["held"].Marks.Has(MarkSlowpath) {
		t.Errorf("held gained slowpath; //rtle:lockpath must stop propagation")
	}
	if fns["heldLeaf"].Marks.Has(MarkSlowpath) {
		t.Errorf("heldLeaf gained slowpath; propagation must not cross a lockpath cut")
	}
	if fns["helper"].Marks.Has(MarkSlowpath) {
		t.Errorf("helper gained slowpath; it is not reachable from any slow-path root")
	}
}

func TestMarkCovered(t *testing.T) {
	g, fns := buildGraph(t, graphSrc)
	g.MarkCovered(MarkLockpath, MarkLockpath|MarkInit)

	if !fns["helper"].Marks.Has(MarkLockpath) {
		t.Errorf("helper not covered; every caller (lockA, lockB) is lockpath")
	}
	if !fns["chainTop"].Marks.Has(MarkLockpath) || !fns["chainMid"].Marks.Has(MarkLockpath) {
		t.Errorf("chainTop/chainMid not covered; coverage must chain through helpers to a fixpoint")
	}
	if !fns["heldLeaf"].Marks.Has(MarkLockpath) {
		t.Errorf("heldLeaf not covered; its only caller, held, is lockpath")
	}
	if fns["mixed"].Marks.Has(MarkLockpath) {
		t.Errorf("mixed covered; open() is an unmarked caller, so coverage must not apply")
	}
	if fns["taken"].Marks.Has(MarkLockpath) {
		t.Errorf("taken covered; an address-taken function is callable from anywhere")
	}
	if fns["Pub"].Marks.Has(MarkLockpath) {
		t.Errorf("Pub covered; exported functions never inherit context")
	}
	if fns["spec"].Marks.Has(MarkLockpath) {
		t.Errorf("spec covered; declared marks keep the author's word")
	}
}

func TestGraphMarkSeeding(t *testing.T) {
	g, fns := buildGraph(t, graphSrc)
	g.Mark(fns["open"].Fn, MarkSlowpath)
	g.MarkReachable(MarkSlowpath, MarkLockpath|MarkInit)

	if !fns["open"].Marks.Has(MarkSlowpath) {
		t.Errorf("open not marked after explicit seeding")
	}
	if fns["open"].Declared != 0 {
		t.Errorf("seeding leaked into Declared = %b; Declared holds only the author's marks", fns["open"].Declared)
	}
	if !fns["mixed"].Marks.Has(MarkSlowpath) {
		t.Errorf("mixed did not inherit the seeded mark from open")
	}
	var missing *types.Func
	g.Mark(missing, MarkSlowpath) // no summary: must be a no-op, not a panic
}
