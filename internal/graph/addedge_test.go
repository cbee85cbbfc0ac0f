package graph

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestValueAppendKeyMatchesEquality: two values encode alike exactly
// when they are ==, across kinds that print alike (Int(5) and
// Float(5), Str and URL of the same text, files of different types)
// and the two zeros, which == equates.
func TestValueAppendKeyMatchesEquality(t *testing.T) {
	vals := []Value{
		NodeValue(5), Int(5), Float(5), Str("5"), URL("5"), File("5", FileText), File("5", FileImage),
		Int(-1), Float(0), Float(math.Copysign(0, -1)), Float(5.5), Bool(true), Bool(false),
		Str(""), Str("ab"), Str("a"), URL(""), File("", FileUnknown), {},
	}
	for _, a := range vals {
		for _, b := range vals {
			if same := bytes.Equal(a.AppendKey(nil), b.AppendKey(nil)); same != (a == b) {
				t.Errorf("AppendKey(%s %s) alike with AppendKey(%s %s) = %v, want %v", a.Kind(), a, b.Kind(), b, same, a == b)
			}
		}
	}
	// Keys are self-delimiting, so concatenations stay injective.
	ab := Str("a").AppendKey(Str("b").AppendKey(nil))
	if bytes.Equal(ab, Str("ab").AppendKey(Str("").AppendKey(nil))) {
		t.Error("concatenated keys collide")
	}
}

// edgeModel is the naive specification of a graph's edges: a set of
// (from, label, to) triples in insertion order. Out and In list a
// node's edges in that order, which is the order Graph keeps.
type edgeModel struct{ edges []Edge }

func (m *edgeModel) add(e Edge) {
	for _, x := range m.edges {
		if x == e {
			return
		}
	}
	m.edges = append(m.edges, e)
}

func (m *edgeModel) remove(keep func(Edge) bool) {
	kept := m.edges[:0]
	for _, e := range m.edges {
		if keep(e) {
			kept = append(kept, e)
		}
	}
	m.edges = kept
}

func (m *edgeModel) check(t *testing.T, g *Graph, nodes []OID, step string) {
	t.Helper()
	if g.NumEdges() != len(m.edges) {
		t.Fatalf("%s: NumEdges = %d, want %d", step, g.NumEdges(), len(m.edges))
	}
	for _, n := range nodes {
		var out, in []Edge
		for _, e := range m.edges {
			if e.From == n {
				out = append(out, e)
			}
			if e.To == NodeValue(n) {
				in = append(in, e)
			}
		}
		if got := g.Out(n); len(got)+len(out) > 0 && !reflect.DeepEqual(got, out) {
			t.Fatalf("%s: Out(&%d) = %v, want %v", step, n, got, out)
		}
		if got := g.In(n); len(got)+len(in) > 0 && !reflect.DeepEqual(got, in) {
			t.Fatalf("%s: In(&%d) = %v, want %v", step, n, got, in)
		}
	}
}

// TestAddEdgeDuplicateCheckBothLists drives both branches of AddEdge's
// duplicate check on a hub with a few hundred node-valued out-edges:
// targets of small in-degree are checked on their in-lists, "popular"
// targets whose in-degree exceeds the hub's out-degree and atomic
// targets on the hub's out-list. Out, In and NumEdges must equal a
// naive set model after the first build, after re-adding every edge,
// after removing edges and nodes, and after re-adding them all.
func TestAddEdgeDuplicateCheckBothLists(t *testing.T) {
	const targets, popular, sources = 300, 4, 400
	g := New("hub")
	hub := g.NewNode("hub")
	nodes := []OID{hub}
	name := map[OID]string{hub: "hub"}
	newNode := func(n string) OID {
		id := g.NewNode(n)
		nodes = append(nodes, id)
		name[id] = n
		return id
	}
	var tgt, pop, src []OID
	for i := 0; i < targets; i++ {
		tgt = append(tgt, newNode("t"+nodeName(i)))
	}
	for i := 0; i < popular; i++ {
		pop = append(pop, newNode("p"+nodeName(i)))
	}
	for i := 0; i < sources; i++ {
		src = append(src, newNode("s"+nodeName(i)))
	}

	var all []Edge
	for i, n := range tgt {
		all = append(all, Edge{hub, "a", NodeValue(n)})
		if i%3 == 0 { // a second label to the same target
			all = append(all, Edge{hub, "b", NodeValue(n)})
		}
		if i%5 == 0 { // another source, same label, same target
			all = append(all, Edge{src[i], "a", NodeValue(n)})
		}
	}
	for _, p := range pop {
		all = append(all, Edge{hub, "a", NodeValue(p)})
		for _, s := range src {
			all = append(all, Edge{s, "a", NodeValue(p)}, Edge{s, "b", NodeValue(p)})
		}
	}
	all = append(all,
		Edge{hub, "self", NodeValue(hub)},
		Edge{hub, "v", Int(5)}, Edge{hub, "v", Float(5)}, Edge{hub, "v", Str("5")},
		Edge{hub, "w", Str("x")}, Edge{src[0], "v", Int(5)})
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

	var m edgeModel
	addAll := func(step string) {
		for _, e := range all {
			if !g.HasNode(e.From) {
				g.AddNode(e.From, name[e.From])
			}
			if err := g.AddEdge(e.From, e.Label, e.To); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			m.add(e)
		}
		m.check(t, g, nodes, step)
	}
	addAll("build")
	if hubOut, popIn := len(g.Out(hub)), len(g.In(pop[0])); popIn <= hubOut {
		t.Fatalf("popular in-degree %d, want above the hub's out-degree %d", popIn, hubOut)
	}
	addAll("re-add")

	for i, e := range all {
		if i%4 == 0 {
			if !g.RemoveEdge(e.From, e.Label, e.To) {
				t.Fatalf("RemoveEdge(%s) found no edge", e)
			}
			m.remove(func(x Edge) bool { return x != e })
		}
	}
	m.check(t, g, nodes, "remove edges")
	for _, n := range []OID{tgt[0], tgt[7], pop[1], src[3], src[0]} {
		if !g.RemoveNode(n) {
			t.Fatalf("RemoveNode(&%d) found no node", n)
		}
		m.remove(func(x Edge) bool { return x.From != n && x.To != NodeValue(n) })
	}
	m.check(t, g, nodes, "remove nodes")
	addAll("re-add after removal")
}
