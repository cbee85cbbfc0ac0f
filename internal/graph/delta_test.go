package graph

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
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

// referenceDiff is the full diff as it was before DiffScope compared
// out-lists in order first: a map of edge keys per node, compared as
// sets. DiffScope(old, new, nil) must return what it returns.
func referenceDiff(old, new *Graph) *Delta {
	type snap struct{ edges, members map[string]struct{} }
	snapshot := func(g *Graph) (map[string]*snap, map[string]map[string]struct{}) {
		objs, colls := map[string]*snap{}, map[string]map[string]struct{}{}
		if g == nil {
			return objs, colls
		}
		for _, id := range g.Nodes() {
			s := &snap{edges: map[string]struct{}{}, members: map[string]struct{}{}}
			for _, e := range g.Out(id) {
				k := append([]byte(e.Label), 0)
				if e.To.IsNode() {
					k = append(append(k, byte(KindNode)), g.Key(e.To.OID())...)
				} else {
					k = e.To.AppendKey(k)
				}
				s.edges[string(k)] = struct{}{}
			}
			objs[g.Key(id)] = s
		}
		for _, c := range g.Collections() {
			set := map[string]struct{}{}
			for _, v := range g.Collection(c) {
				if !v.IsNode() {
					set[string(v.AppendKey(nil))] = struct{}{}
					continue
				}
				set[g.Key(v.OID())] = struct{}{}
				objs[g.Key(v.OID())].members[c] = struct{}{}
			}
			colls[c] = set
		}
		return objs, colls
	}
	oldObjs, oldColls := snapshot(old)
	newObjs, newColls := snapshot(new)
	sameSet := func(a, b map[string]struct{}) bool {
		return len(a) == len(b) && reflect.DeepEqual(a, b)
	}
	labels, colls := map[string]struct{}{}, map[string]struct{}{}
	touch := func(edges map[string]struct{}, except map[string]struct{}) {
		for k := range edges {
			if _, ok := except[k]; !ok {
				labels[k[:strings.IndexByte(k, 0)]] = struct{}{}
			}
		}
	}
	d := &Delta{}
	for key, ns := range newObjs {
		os, ok := oldObjs[key]
		switch {
		case !ok:
			d.AddedObjects = append(d.AddedObjects, key)
			touch(ns.edges, nil)
		case !sameSet(os.edges, ns.edges) || !sameSet(os.members, ns.members):
			d.ChangedObjects = append(d.ChangedObjects, key)
			touch(ns.edges, os.edges)
			touch(os.edges, ns.edges)
		}
	}
	for key, os := range oldObjs {
		if _, ok := newObjs[key]; !ok {
			d.RemovedObjects = append(d.RemovedObjects, key)
			touch(os.edges, nil)
		}
	}
	for name, ns := range newColls {
		if os, ok := oldColls[name]; !ok || !sameSet(os, ns) {
			colls[name] = struct{}{}
		}
	}
	for name := range oldColls {
		if _, ok := newColls[name]; !ok {
			colls[name] = struct{}{}
		}
	}
	d.TouchedLabels = slices.Sorted(maps.Keys(labels))
	d.TouchedCollections = slices.Sorted(maps.Keys(colls))
	for _, objs := range []*[]string{&d.AddedObjects, &d.RemovedObjects, &d.ChangedObjects} {
		slices.Sort(*objs)
	}
	return d
}

// shuffleOutLists re-inserts every node's out-edges in a random order:
// the same edge sets in other out-list orders.
func shuffleOutLists(g *Graph, rng *rand.Rand) {
	for _, id := range g.Nodes() {
		out := g.Out(id)
		for _, e := range out {
			g.RemoveEdge(e.From, e.Label, e.To)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		for _, e := range out {
			if err := g.AddEdge(e.From, e.Label, e.To); err != nil {
				panic(err)
			}
		}
	}
}

// TestDiffPermutedOutList: an out-list holding the same edges in
// another order is unchanged, and one changed edge in a permuted list
// is reported with its label, and no other.
func TestDiffPermutedOutList(t *testing.T) {
	build := func(order []int) *Graph {
		g := New("g")
		a, b := g.NewNode("a"), g.NewNode("b")
		edges := []Edge{
			{a, "title", Str("A")}, {a, "link", NodeValue(b)},
			{a, "year", Int(1997)}, {a, "link", NodeValue(a)},
		}
		for _, i := range order {
			g.AddEdge(edges[i].From, edges[i].Label, edges[i].To)
		}
		return g
	}
	old, permuted := build([]int{0, 1, 2, 3}), build([]int{3, 2, 0, 1})
	if d := DiffScope(old, permuted, nil); !d.Empty() {
		t.Errorf("permuted out-list: %s, want empty", d.Summary())
	}
	a, _ := permuted.NodeByName("a")
	permuted.RemoveEdge(a, "year", Int(1997))
	permuted.AddEdge(a, "year", Int(1998))
	d := DiffScope(old, permuted, nil)
	if got, want := d.Summary(), "delta: +0 -0 ~1 objects, labels year"; got != want {
		t.Errorf("one changed edge: %s, want %s", got, want)
	}
	if !reflect.DeepEqual(d, referenceDiff(old, permuted)) {
		t.Errorf("DiffScope %+v, referenceDiff %+v", d, referenceDiff(old, permuted))
	}
}

// TestQuickDiffEqualsReferenceDiff: on random graphs and edit scripts,
// with every out-list of the new side re-inserted in a random order on
// some runs, the full diff equals the map-per-node reference in both
// directions and against a missing graph.
func TestQuickDiffEqualsReferenceDiff(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := randomGraph(seed, 12)
		mutateRandomly(old, rng, 30)
		new := copyGraph(old)
		if rng.Intn(2) == 0 {
			shuffleOutLists(new, rng)
		}
		mutateRandomly(new, rng, rng.Intn(8))
		for _, p := range [][2]*Graph{{old, new}, {new, old}, {nil, new}, {old, nil}} {
			if got, want := DiffScope(p[0], p[1], nil), referenceDiff(p[0], p[1]); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d:\nDiffScope    %+v\nreferenceDiff %+v", seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
