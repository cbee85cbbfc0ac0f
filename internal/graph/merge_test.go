package graph

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// referenceMerge is Merge as it was before graphs shared records: an
// edge-by-edge deep copy of src into g through the mutators, which
// binds the names src binds (a creation name src leaves unbound stays
// unbound). Merge must build what it builds, in-list order aside.
func referenceMerge(g, src *Graph) {
	ids := src.Nodes()
	for _, id := range ids {
		if !g.HasNode(id) {
			g.mu.Lock()
			g.newNodeLocked(id, src.NodeName(id))
			g.mu.Unlock()
			g.alloc.reserve(id)
		}
	}
	src.mu.RLock()
	names := maps.Clone(src.names)
	src.mu.RUnlock()
	for _, name := range slices.Sorted(maps.Keys(names)) {
		g.AddNode(names[name], name)
	}
	for _, id := range ids {
		for _, e := range src.Out(id) {
			// Duplicate edges are ignored by AddEdge.
			_ = g.AddEdge(e.From, e.Label, e.To)
		}
	}
	for _, c := range src.Collections() {
		g.DeclareCollection(c)
		for _, v := range src.Collection(c) {
			g.AddToCollection(c, v)
		}
	}
}

// graphMismatch compares two graphs node for node: OIDs, creation
// names, keys, out-edges in order, in-edges as multisets, name
// bindings, collections with their members in order, and edge counts.
// It returns "" when they match.
func graphMismatch(a, b *Graph) string {
	if !slices.Equal(a.Nodes(), b.Nodes()) {
		return "nodes differ"
	}
	for _, id := range a.Nodes() {
		if a.NodeName(id) != b.NodeName(id) || a.Key(id) != b.Key(id) {
			return "name or key of &" + a.Key(id) + " differs"
		}
		if !slices.Equal(a.Out(id), b.Out(id)) {
			return "out-edges of " + a.Key(id) + " differ"
		}
		if !sameMultiset(a.In(id), b.In(id)) {
			return "in-edges of " + a.Key(id) + " differ"
		}
	}
	a.mu.RLock()
	names := maps.Clone(a.names)
	a.mu.RUnlock()
	b.mu.RLock()
	n := len(b.names)
	b.mu.RUnlock()
	if n != len(names) {
		return "name tables differ in size"
	}
	for name, id := range names {
		if got, ok := b.NodeByName(name); !ok || got != id {
			return "name " + name + " is bound differently"
		}
	}
	if !slices.Equal(a.Collections(), b.Collections()) {
		return "collections differ"
	}
	for _, c := range a.Collections() {
		if !slices.Equal(a.Collection(c), b.Collection(c)) {
			return "members of " + c + " differ"
		}
	}
	if a.NumEdges() != b.NumEdges() || a.NumEdges() != len(a.AllEdges()) || b.NumEdges() != len(b.AllEdges()) {
		return "edge counts differ"
	}
	return ""
}

func sameMultiset(a, b []Edge) bool {
	count := map[Edge]int{}
	for _, e := range a {
		count[e]++
	}
	for _, e := range b {
		count[e]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// mergePair builds a merge target and a source over one OID space
// from a seed. The target holds some of the source's nodes under
// records of its own, possibly with edges of its own, and may share
// other records with the source through an earlier Merge; both carry
// aliases, removals and unbound creation names (mutateRandomly).
func mergePair(seed int64) (g, src *Graph) {
	rng := rand.New(rand.NewSource(seed))
	src = randomGraph(seed, 8+rng.Intn(10))
	mutateRandomly(src, rng, rng.Intn(30))
	g = src.NewSibling("G")
	switch rng.Intn(3) {
	case 1: // a target that shares records with src already
		g.Merge(src)
	case 2: // a target holding some of src's nodes in records of its own
		for _, id := range src.Nodes() {
			if rng.Intn(2) == 0 {
				g.AddNode(id, src.NodeName(id))
			}
		}
	}
	mutateRandomly(g, rng, rng.Intn(20))
	mutateRandomly(src, rng, rng.Intn(20))
	return g, src
}

// TestMergeSharedNodeTarget is the case a record-sharing Merge must not
// get wrong: g and src both hold p, src has p→s, and s is new to g, so
// s arrives with src's record, whose in-list already lists p→s.
func TestMergeSharedNodeTarget(t *testing.T) {
	src := New("S")
	p, s := src.NewNode("p"), src.NewNode("s")
	src.AddEdge(p, "to", NodeValue(s))
	g := src.NewSibling("G")
	g.AddNode(p, "p")
	g.AddEdge(p, "own", Str("x"))

	ref := src.NewSibling("R")
	referenceMerge(ref, g)
	referenceMerge(ref, src)
	g.Merge(src)
	if msg := graphMismatch(g, ref); msg != "" {
		t.Fatalf("merge: %s\n%s", msg, g.DumpString())
	}
	if in := g.In(s); len(in) != 1 {
		t.Errorf("s has in-edges %v, want one", in)
	}
}

// TestMergeKeepsAliasBindings: a copy binds every name the original
// binds, so a node named after it was created keeps its key.
func TestMergeKeepsAliasBindings(t *testing.T) {
	g := New("G")
	b := g.NewNode("b")
	g.AddNode(b, "a")
	c := g.NewSibling(g.Name())
	c.Merge(g)
	if got, want := c.Key(b), g.Key(b); got != want {
		t.Errorf("copy keys the node %q, the graph %q", got, want)
	}
	if id, ok := c.NodeByName("a"); !ok || id != b {
		t.Errorf("copy resolves a to &%d (%v), want &%d", id, ok, b)
	}
	if d := Diff(g, c); !d.Empty() {
		t.Errorf("copy differs: %s", d.Summary())
	}
	if d := DiffScope(g, c, nil); !d.Empty() {
		t.Errorf("copy differs in full: %s", d.Summary())
	}
}

// TestQuickMergeMatchesReference: Merge builds what the deep-copying
// reference builds, into empty and non-empty targets alike, and the
// graphs that share records stay isolated: random edits to the merged
// graph and to its source leave each equal to a deep-copied twin that
// took the same edits.
func TestQuickMergeMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, src := mergePair(seed)
		want := src.NewSibling("W")
		referenceMerge(want, g)
		referenceMerge(want, src)
		got := g
		if rng.Intn(4) == 0 { // an empty target: the copy
			want, got = src.NewSibling("W"), src.NewSibling("C")
			referenceMerge(want, src)
		}
		got.Merge(src)
		if msg := graphMismatch(got, want); msg != "" {
			t.Logf("seed %d: merge: %s", seed, msg)
			return false
		}

		// Twins in an OID space of their own, in step with the graphs'
		// own allocator, so the same edit scripts allocate the same OIDs.
		alloc := &oidAllocator{next: src.alloc.next}
		twins := map[*Graph]*Graph{}
		for _, x := range []*Graph{got, src} {
			twin := newGraph(x.Name(), alloc)
			referenceMerge(twin, x)
			twins[x] = twin
		}
		for _, x := range []*Graph{got, src} {
			edits, n := rng.Int63(), 1+rng.Intn(25)
			mutateRandomly(x, rand.New(rand.NewSource(edits)), n)
			mutateRandomly(twins[x], rand.New(rand.NewSource(edits)), n)
		}
		for _, x := range []*Graph{got, src} {
			if msg := graphMismatch(x, twins[x]); msg != "" {
				t.Logf("seed %d: after edits, %s: %s", seed, x.Name(), msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMergeConcurrentCopies: goroutines copy one graph, edit their
// copies and diff them against it while another goroutine edits the
// graph itself, so every graph writes records the others share. Run
// it under -race, where a write into a shared record is a reported
// race. Each copy must end consistent: its in-lists mirror its
// out-lists and its edge count is its edges.
func TestMergeConcurrentCopies(t *testing.T) {
	g := randomGraph(1, 40)
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w))
			for i := 0; i < 20; i++ {
				c := g.NewSibling("C")
				c.Merge(g)
				mutateRandomly(c, rng, 10)
				Diff(g, c)
				want := g.NewSibling("W")
				referenceMerge(want, c)
				if msg := graphMismatch(c, want); msg != "" {
					t.Errorf("copy %d of worker %d: %s", i, w, msg)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 100; i++ {
			mutateRandomly(g, rng, 2)
		}
	}()
	wg.Wait()
}

// TestQuickDiffSharedEqualsFull: the diff of two graphs that share
// records, scoped to what they do not share, equals the full diff,
// over random edit scripts on a copy, on its original, and on two
// graphs merged from the same sources.
func TestQuickDiffSharedEqualsFull(t *testing.T) {
	const runs = 500
	scoped := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := randomGraph(seed, 12)
		mutateRandomly(old, rng, 30)
		var new *Graph
		if rng.Intn(3) == 0 {
			// Two warehouses of the same sources, one source re-edited.
			a, b := old.NewSibling("A"), old.NewSibling("B")
			mutateRandomly(a, rng, 10)
			mutateRandomly(b, rng, 10)
			old = old.NewSibling("W")
			old.Merge(a)
			old.Merge(b)
			b2 := b.NewSibling("B")
			b2.Merge(b)
			mutateRandomly(b2, rng, 1+rng.Intn(8))
			new = old.NewSibling("W")
			new.Merge(a)
			new.Merge(b2)
		} else {
			new = old.NewSibling(old.Name())
			new.Merge(old)
			mutateRandomly(new, rng, 1+rng.Intn(8))
			if rng.Intn(2) == 0 {
				mutateRandomly(old, rng, 1+rng.Intn(4))
			}
		}
		if sharedScope(old, new) != nil {
			scoped++
		}
		full := DiffScope(old, new, nil)
		if got := Diff(old, new); !reflect.DeepEqual(got, full) {
			t.Logf("seed %d:\nscoped %+v\nfull   %+v", seed, got, full)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: runs}); err != nil {
		t.Error(err)
	}
	if scoped < runs*9/10 {
		t.Errorf("only %d of %d graph pairs shared a record", scoped, runs)
	}
}

// TestDiffUnsharedTakesFullDiff: graphs that share no record, such as a
// graph and its deep copy, are diffed in full.
func TestDiffUnsharedTakesFullDiff(t *testing.T) {
	old := randomGraph(7, 12)
	new := copyGraph(old)
	new.AddEdge(new.Nodes()[0], "title", Str("changed"))
	if sharedScope(old, new) != nil {
		t.Fatal("a deep copy shares records")
	}
	if got, want := Diff(old, new), DiffScope(old, new, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("Diff %+v, full diff %+v", got, want)
	}
}
