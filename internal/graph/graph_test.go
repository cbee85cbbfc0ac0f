package graph

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		text string
	}{
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{Bool(true), KindBool, "true"},
		{Str("hello"), KindString, "hello"},
		{URL("http://x"), KindURL, "http://x"},
		{File("a.ps", FilePostScript), KindFile, "a.ps"},
		{NodeValue(7), KindNode, "&7"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.Text() != c.text {
			t.Errorf("%v: text = %q, want %q", c.v, c.v.Text(), c.text)
		}
	}
	if !NodeValue(7).IsNode() || Int(1).IsNode() {
		t.Error("IsNode misclassifies")
	}
	if !Int(1).IsAtom() || NodeValue(1).IsAtom() {
		t.Error("IsAtom misclassifies")
	}
	var zero Value
	if !zero.IsZero() || Int(0).IsZero() {
		t.Error("IsZero misclassifies")
	}
}

// TestValueAndEdgeSizes pins the layout: binding rows, collection
// members and both adjacency lists store Values and Edges inline, so
// every byte here is paid once per row, member and edge.
func TestValueAndEdgeSizes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 48 {
		t.Errorf("sizeof(Value) = %d, want 48", got)
	}
	if got := unsafe.Sizeof(Edge{}); got != 72 {
		t.Errorf("sizeof(Edge) = %d, want 72", got)
	}
}

func TestValueOIDPanicsOnAtom(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OID on atom should panic")
		}
	}()
	Int(3).OID()
}

func TestFileTypeByName(t *testing.T) {
	for name, want := range map[string]FileType{
		"postscript": FilePostScript, "ps": FilePostScript,
		"text": FileText, "TXT": FileText,
		"image": FileImage, "html": FileHTML,
	} {
		got, ok := FileTypeByName(name)
		if !ok || got != want {
			t.Errorf("FileTypeByName(%q) = %v,%v; want %v,true", name, got, ok, want)
		}
	}
	if _, ok := FileTypeByName("pdf"); ok {
		t.Error("pdf should be unknown")
	}
}

func TestCompareCoercion(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Float(2.0), 0, true},
		{Int(3), Str("3"), 0, true},
		{Str("1997"), Int(1998), -1, true},
		{Str("abc"), Str("abd"), -1, true},
		{Bool(true), Str("true"), 0, true},
		{Bool(false), Bool(true), -1, true},
		{URL("http://a"), Str("http://a"), 0, true},
		{File("x.ps", FilePostScript), Str("x.ps"), 0, true},
		{NodeValue(1), NodeValue(1), 0, true},
		{NodeValue(1), NodeValue(2), -1, true},
		{NodeValue(1), Int(1), 0, false},
		{Bool(true), Int(1), 0, false},
		{Str("abc"), Int(1), -1, true}, // string coercion of int: "abc" > "1"? No: cmp via string "abc" vs "1" => 'a' > '1' so +1. Fixed below.
	}
	// Correct the last expectation: "abc" vs "1" lexicographically is +1.
	cases[len(cases)-1].cmp = 1
	for _, c := range cases {
		got, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && got != c.cmp) {
			t.Errorf("Compare(%v,%v) = %d,%v; want %d,%v", c.a, c.b, got, ok, c.cmp, c.ok)
		}
	}
	if !Eq(Int(5), Str("5")) {
		t.Error("Eq(5, \"5\") should hold")
	}
	if Eq(Int(5), Str("6")) {
		t.Error("Eq(5, \"6\") should not hold")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	mk := func(tag uint8, n int64, s string) Value {
		switch tag % 5 {
		case 0:
			return Int(n)
		case 1:
			return Float(float64(n) / 2)
		case 2:
			return Str(s)
		case 3:
			return Bool(n%2 == 0)
		default:
			return NodeValue(OID(n&0xff + 1))
		}
	}
	prop := func(t1 uint8, n1 int64, s1 string, t2 uint8, n2 int64, s2 string) bool {
		a, b := mk(t1, n1, s1), mk(t2, n2, s2)
		ab, ok1 := Compare(a, b)
		ba, ok2 := Compare(b, a)
		if ok1 != ok2 {
			return false
		}
		return !ok1 || ab == -ba
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLessTotalOrderProperty(t *testing.T) {
	vals := []Value{
		Int(1), Int(2), Float(1.5), Bool(false), Bool(true),
		Str("a"), Str("b"), URL("u"), File("f", FileText),
		File("f", FileImage), NodeValue(1), NodeValue(2),
	}
	for _, a := range vals {
		if Less(a, a) {
			t.Errorf("Less(%v,%v) must be false (irreflexive)", a, a)
		}
		for _, b := range vals {
			if a != b && Less(a, b) == Less(b, a) {
				t.Errorf("Less not antisymmetric for %v,%v", a, b)
			}
		}
	}
}

func TestGraphNodesAndEdges(t *testing.T) {
	g := New("test")
	a := g.NewNode("a")
	b := g.NewNode("b")
	if a == b || a == InvalidOID {
		t.Fatalf("bad oids %d %d", a, b)
	}
	if got := g.NewNode("a"); got != a {
		t.Errorf("NewNode with existing name should return existing node")
	}
	if err := g.AddEdge(a, "child", NodeValue(b)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, "title", Str("Hello")); err != nil {
		t.Fatal(err)
	}
	// Duplicate edges are ignored.
	if err := g.AddEdge(a, "child", NodeValue(b)); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if err := g.AddEdge(999, "x", Str("y")); err == nil {
		t.Error("edge from unknown node should fail")
	}
	if err := g.AddEdge(a, "bad", Value{}); err == nil {
		t.Error("edge to zero value should fail")
	}
	out := g.Out(a)
	if len(out) != 2 {
		t.Fatalf("Out(a) = %d edges, want 2", len(out))
	}
	if v, ok := g.First(a, "title"); !ok || v.Text() != "Hello" {
		t.Errorf("First(a,title) = %v,%v", v, ok)
	}
	if _, ok := g.First(a, "missing"); ok {
		t.Error("First on missing label should report !ok")
	}
	if vs := g.OutLabel(a, "child"); len(vs) != 1 || vs[0] != NodeValue(b) {
		t.Errorf("OutLabel(a,child) = %v", vs)
	}
	in := g.In(b)
	if len(in) != 1 || in[0].From != a {
		t.Errorf("In(b) = %v", in)
	}
	labels := g.Labels()
	if len(labels) != 2 || labels[0] != "child" || labels[1] != "title" {
		t.Errorf("Labels = %v", labels)
	}
}

func TestGraphEdgeImplicitTarget(t *testing.T) {
	g := New("test")
	a := g.NewNode("a")
	// Edge to a node OID never seen before implicitly adds it.
	if err := g.AddEdge(a, "x", NodeValue(500)); err != nil {
		t.Fatal(err)
	}
	if !g.HasNode(500) {
		t.Fatal("target node should have been added")
	}
	// Fresh allocations must not collide with the reserved OID.
	if id := g.NewNode(""); id <= 500 {
		t.Errorf("NewNode after reserve = %d, want > 500", id)
	}
}

func TestCollections(t *testing.T) {
	g := New("test")
	a := g.NewNode("a")
	g.AddToCollection("Pubs", NodeValue(a))
	g.AddToCollection("Pubs", NodeValue(a)) // dup ignored
	g.AddToCollection("Pubs", Str("atom-member"))
	g.DeclareCollection("Empty")
	if got := g.Collection("Pubs"); len(got) != 2 {
		t.Errorf("Pubs = %v", got)
	}
	if !g.InCollection("Pubs", NodeValue(a)) {
		t.Error("a should be in Pubs")
	}
	if g.InCollection("Pubs", Str("nope")) || g.InCollection("Missing", Str("x")) {
		t.Error("false membership")
	}
	names := g.Collections()
	if len(names) != 2 || names[0] != "Empty" || names[1] != "Pubs" {
		t.Errorf("Collections = %v", names)
	}
	if !g.HasCollection("Empty") || g.HasCollection("Nope") {
		t.Error("HasCollection wrong")
	}
	// Node members added via collection are part of the graph.
	g.AddToCollection("Other", NodeValue(777))
	if !g.HasNode(777) {
		t.Error("collection node member should join the graph")
	}
}

// TestAddToCollectionRefusesZeroValue: the zero Value, which AddEdge
// refuses as a target, never becomes a collection member either.
func TestAddToCollectionRefusesZeroValue(t *testing.T) {
	g := New("test")
	g.AddToCollection("C", Value{})
	g.AddToCollection("C", Str("a"))
	if got := g.Collection("C"); len(got) != 1 || got[0] != Str("a") {
		t.Errorf("C = %v, want [\"a\"]", got)
	}
	if g.InCollection("C", Value{}) {
		t.Error("the zero Value is a member of C")
	}
}

func TestReachable(t *testing.T) {
	g := New("t")
	a, b, c, d := g.NewNode("a"), g.NewNode("b"), g.NewNode("c"), g.NewNode("d")
	_ = d
	g.AddEdge(a, "x", NodeValue(b))
	g.AddEdge(b, "y", NodeValue(c))
	g.AddEdge(c, "z", NodeValue(a)) // cycle
	g.AddEdge(a, "t", Str("atom"))
	r := g.Reachable(a)
	if len(r) != 3 {
		t.Fatalf("reachable = %d nodes, want 3", len(r))
	}
	if _, ok := r[d]; ok {
		t.Error("d should not be reachable")
	}
	if len(g.Reachable(999)) != 0 {
		t.Error("reachable from unknown node should be empty")
	}
}

func TestDatabaseSharedOIDs(t *testing.T) {
	db := NewDatabase()
	g1 := db.NewGraph("data")
	g2 := db.NewGraph("site")
	if db.NewGraph("data") != g1 {
		t.Error("NewGraph should be idempotent")
	}
	a := g1.NewNode("a")
	b := g2.NewNode("b")
	if a == b {
		t.Fatal("graphs in one database must not reuse OIDs")
	}
	// Sharing: the same node can be added to the other graph.
	g2.AddNode(a, "a")
	if !g2.HasNode(a) || g2.NodeName(a) != "a" {
		t.Error("shared node missing")
	}
	if _, ok := db.Graph("site"); !ok {
		t.Error("Graph lookup failed")
	}
	if names := db.Names(); len(names) != 2 || names[0] != "data" {
		t.Errorf("Names = %v", names)
	}
	db.Drop("site")
	if _, ok := db.Graph("site"); ok {
		t.Error("Drop failed")
	}
}

func TestDatabaseAttach(t *testing.T) {
	db := NewDatabase()
	g0 := db.NewGraph("existing")
	standalone := New("wrapped")
	n := standalone.NewNode("x")
	db.Attach(standalone)
	if _, ok := db.Graph("wrapped"); !ok {
		t.Fatal("attached graph not registered")
	}
	// New allocations in either graph must avoid the attached OIDs.
	m := g0.NewNode("")
	if m == n {
		t.Error("OID collision after Attach")
	}
}

func TestMustGraphPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGraph should panic on missing graph")
		}
	}()
	NewDatabase().MustGraph("nope")
}

func TestDumpDeterministic(t *testing.T) {
	build := func() *Graph {
		g := New("d")
		a := g.NewNode("root")
		b := g.NewNode("leaf")
		g.AddEdge(a, "beta", Str("2"))
		g.AddEdge(a, "alpha", Str("1"))
		g.AddEdge(a, "child", NodeValue(b))
		g.AddToCollection("Roots", NodeValue(a))
		return g
	}
	d1, d2 := build().DumpString(), build().DumpString()
	if d1 != d2 {
		t.Error("Dump not deterministic")
	}
	for _, want := range []string{"collection Roots { root }", "alpha -> \"1\"", "child -> leaf"} {
		if !strings.Contains(d1, want) {
			t.Errorf("dump missing %q in:\n%s", want, d1)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := New("d")
	a := g.NewNode("root")
	b := g.NewNode("")
	g.AddEdge(a, "child", NodeValue(b))
	g.AddEdge(a, "title", Str("T"))
	var sb strings.Builder
	g.DOT(&sb)
	s := sb.String()
	for _, want := range []string{"digraph", "label=\"root\"", "label=\"child\"", "shape=box"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT missing %q:\n%s", want, s)
		}
	}
}

func TestStats(t *testing.T) {
	g := New("s")
	a := g.NewNode("a")
	g.AddEdge(a, "x", Str("1"))
	g.AddToCollection("C", NodeValue(a))
	st := g.Stats()
	if st.Nodes != 1 || st.Edges != 1 || st.Collections != 1 || st.Labels != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestConcurrentMutation(t *testing.T) {
	g := New("c")
	root := g.NewNode("root")
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				n := g.NewNode("")
				g.AddEdge(root, "child", NodeValue(n))
				g.AddToCollection("All", NodeValue(n))
				g.Out(root)
				g.Collection("All")
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if g.NumNodes() != 801 {
		t.Errorf("NumNodes = %d, want 801", g.NumNodes())
	}
	if len(g.Collection("All")) != 800 {
		t.Errorf("collection size = %d, want 800", len(g.Collection("All")))
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := New("e")
	a := g.NewNode("a")
	for i := 0; i < 10; i++ {
		g.AddEdge(a, "x", Int(int64(i)))
	}
	count := 0
	g.Edges(func(Edge) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d, want 3", count)
	}
	if len(g.AllEdges()) != 10 {
		t.Error("AllEdges wrong size")
	}
}

func TestEachOut(t *testing.T) {
	g := New("e")
	a := g.NewNode("a")
	for i := 0; i < 5; i++ {
		g.AddEdge(a, "x", Int(int64(i)))
	}
	var seen []Value
	g.EachOut(a, func(e Edge) bool {
		seen = append(seen, e.To)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != Int(0) {
		t.Errorf("seen = %v", seen)
	}
	g.EachOut(999, func(Edge) bool {
		t.Fatal("missing node should not iterate")
		return true
	})
}

// TestMergeCopiesAndUnions: merged into an empty sibling, a graph is
// copied with its OIDs, names, edge order and collections, and edits
// to the copy leave the original as it was. Merged into a graph that
// has objects already, it unions, and a bound name keeps its node.
func TestMergeCopiesAndUnions(t *testing.T) {
	g := New("G")
	a, b := g.NewNode("a"), g.NewNode("b")
	anon := g.NewNode("")
	g.AddEdge(a, "title", Str("A"))
	g.AddEdge(a, "see", NodeValue(b))
	g.AddEdge(a, "author", Str("Ann"))
	g.AddEdge(b, "see", NodeValue(anon))
	g.AddToCollection("C", NodeValue(b))
	g.AddToCollection("C", NodeValue(a))
	g.AddToCollection("C", Int(5))
	g.DeclareCollection("Empty")
	before := g.DumpString()

	c := g.NewSibling(g.Name())
	c.Merge(g)
	if got := c.DumpString(); got != before {
		t.Fatalf("copy dumps\n%s\nwant\n%s", got, before)
	}
	for _, id := range g.Nodes() {
		if c.NodeName(id) != g.NodeName(id) || c.Key(id) != g.Key(id) {
			t.Errorf("&%d: copy names it %q (key %s), the graph %q (key %s)",
				id, c.NodeName(id), c.Key(id), g.NodeName(id), g.Key(id))
		}
		if got, want := c.Out(id), g.Out(id); len(got) != len(want) {
			t.Errorf("&%d: copy has %d out-edges, the graph %d", id, len(got), len(want))
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("&%d: out-edge %d is %v in the copy, %v in the graph", id, i, got[i], want[i])
				}
			}
		}
	}
	if got, want := c.Collection("C"), g.Collection("C"); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("copy's collection C is %v, want %v", got, want)
	}
	if !c.HasCollection("Empty") {
		t.Error("copy lost the empty collection")
	}

	c.RemoveEdge(a, "title", Str("A"))
	c.AddEdge(a, "title", Str("A2"))
	c.RemoveNode(b)
	if c.NewNode("d") == c.NewNode("") {
		t.Fatal("fresh nodes share an OID")
	}
	if got := g.DumpString(); got != before {
		t.Errorf("editing the copy changed the graph:\n%s", got)
	}

	u := g.NewSibling("U")
	other := u.NewNode("a")
	u.Merge(g)
	if id, _ := u.NodeByName("a"); id != other {
		t.Errorf("merge rebound name a to &%d, want &%d", id, other)
	}
	if !u.HasNode(a) || !u.HasNode(other) || u.NumEdges() != g.NumEdges() {
		t.Errorf("union has nodes %v and %d edges, want both a's and %d edges", u.Nodes(), u.NumEdges(), g.NumEdges())
	}
}
