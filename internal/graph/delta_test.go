package graph

import (
	"reflect"
	"testing"
)

// buildPair constructs two independently allocated graphs with the same
// named content; OIDs intentionally differ between the two.
func buildPair() (*Graph, *Graph) {
	old := New("old")
	a := old.NewNode("a")
	b := old.NewNode("b")
	old.AddEdge(a, "title", Str("A"))
	old.AddEdge(a, "link", NodeValue(b))
	old.AddEdge(b, "title", Str("B"))
	old.AddToCollection("Things", NodeValue(a))
	old.AddToCollection("Things", NodeValue(b))

	new := New("new")
	new.NewNode("pad") // shift the OID space
	b2 := new.NewNode("b")
	a2 := new.NewNode("a")
	new.AddEdge(a2, "title", Str("A"))
	new.AddEdge(a2, "link", NodeValue(b2))
	new.AddEdge(b2, "title", Str("B"))
	new.AddToCollection("Things", NodeValue(a2))
	new.AddToCollection("Things", NodeValue(b2))
	new.RemoveNode(new.names["pad"])
	return old, new
}

func TestDiffIdenticalNamedGraphs(t *testing.T) {
	old, new := buildPair()
	if d := Diff(old, new); !d.Empty() {
		t.Fatalf("identical graphs with shifted OIDs should diff empty, got %s", d.Summary())
	}
}

func TestDiffEditKinds(t *testing.T) {
	old, new := buildPair()
	a, _ := new.NodeByName("a")
	b, _ := new.NodeByName("b")
	// Mutate a's title, add node c, remove b from the collection.
	new.RemoveEdge(a, "title", Str("A"))
	new.AddEdge(a, "title", Str("A2"))
	c := new.NewNode("c")
	new.AddEdge(c, "year", Int(1998))
	new.AddToCollection("Things", NodeValue(c))
	new.RemoveFromCollection("Things", NodeValue(b))

	d := Diff(old, new)
	if !reflect.DeepEqual(d.AddedObjects, []string{"c"}) {
		t.Errorf("added = %v, want [c]", d.AddedObjects)
	}
	if len(d.RemovedObjects) != 0 {
		t.Errorf("removed = %v, want none", d.RemovedObjects)
	}
	// a changed (title edge), b changed (membership).
	if !reflect.DeepEqual(d.ChangedObjects, []string{"a", "b"}) {
		t.Errorf("changed = %v, want [a b]", d.ChangedObjects)
	}
	if !reflect.DeepEqual(d.TouchedLabels, []string{"title", "year"}) {
		t.Errorf("labels = %v, want [title year]", d.TouchedLabels)
	}
	if !d.HasCollection("Things") || d.HasCollection("Other") {
		t.Errorf("collections = %v, want [Things]", d.TouchedCollections)
	}
}

func TestDiffRemovedNode(t *testing.T) {
	old, new := buildPair()
	b, _ := new.NodeByName("b")
	new.RemoveNode(b)
	d := Diff(old, new)
	if !reflect.DeepEqual(d.RemovedObjects, []string{"b"}) {
		t.Errorf("removed = %v, want [b]", d.RemovedObjects)
	}
	// a lost its link edge, so it is changed.
	if !reflect.DeepEqual(d.ChangedObjects, []string{"a"}) {
		t.Errorf("changed = %v, want [a]", d.ChangedObjects)
	}
	if !d.HasCollection("Things") {
		t.Errorf("expected Things membership change, got %v", d.TouchedCollections)
	}
	if !d.HasLabel("link") || !d.HasLabel("title") {
		t.Errorf("labels = %v, want link and title", d.TouchedLabels)
	}
}

func TestRemoveNodeInvariants(t *testing.T) {
	g := New("g")
	a := g.NewNode("a")
	b := g.NewNode("b")
	g.AddEdge(a, "x", NodeValue(b))
	g.AddEdge(a, "y", NodeValue(b))
	g.AddEdge(b, "self", NodeValue(b))
	g.AddEdge(b, "t", Str("v"))
	g.AddToCollection("C", NodeValue(b))
	if !g.RemoveNode(b) {
		t.Fatal("RemoveNode(b) = false")
	}
	if g.NumEdges() != 0 {
		t.Errorf("edgeCount = %d after removing b, want 0", g.NumEdges())
	}
	if len(g.Out(a)) != 0 {
		t.Errorf("a still has out-edges: %v", g.Out(a))
	}
	if len(g.Collection("C")) != 0 {
		t.Errorf("C still has members: %v", g.Collection("C"))
	}
	if _, ok := g.NodeByName("b"); ok {
		t.Error("name b still bound")
	}
}

func TestReverseReachable(t *testing.T) {
	g := New("g")
	root := g.NewNode("root")
	mid := g.NewNode("mid")
	leaf := g.NewNode("leaf")
	other := g.NewNode("other")
	g.AddEdge(root, "child", NodeValue(mid))
	g.AddEdge(mid, "child", NodeValue(leaf))
	got := g.ReverseReachable([]OID{leaf})
	for _, want := range []OID{leaf, mid, root} {
		if _, ok := got[want]; !ok {
			t.Errorf("missing %d in reverse cone", want)
		}
	}
	if _, ok := got[other]; ok {
		t.Error("unrelated node in reverse cone")
	}
}

// TestDiffIntAndFloatAtomsDiffer: Int(5) and Float(5) print alike but
// are different values, so replacing one by the other as an edge
// target changes the node, and as a collection member changes the
// collection.
func TestDiffIntAndFloatAtomsDiffer(t *testing.T) {
	old, new := New("old"), New("new")
	old.AddEdge(old.NewNode("x1"), "v", Int(5))
	new.AddEdge(new.NewNode("x1"), "v", Float(5))
	if got, want := Diff(old, new).Summary(), "delta: +0 -0 ~1 objects, labels v"; got != want {
		t.Errorf("Diff = %q, want %q", got, want)
	}
	old, new = New("old"), New("new")
	old.AddToCollection("Vals", Int(5))
	new.AddToCollection("Vals", Float(5))
	if got, want := Diff(old, new).Summary(), "delta: +0 -0 ~0 objects, collections Vals"; got != want {
		t.Errorf("Diff = %q, want %q", got, want)
	}
}
