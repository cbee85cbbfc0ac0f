package graph

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// randomGraph builds a graph from a seed: named nodes, random edges to
// nodes and atoms, random collections. Deterministic per seed.
func randomGraph(seed int64, nodes int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New("rnd")
	ids := make([]OID, nodes)
	for i := range ids {
		ids[i] = g.NewNode(nodeName(i))
	}
	labels := []string{"a", "b", "c", "next", "title"}
	for i := 0; i < nodes*3; i++ {
		from := ids[rng.Intn(len(ids))]
		label := labels[rng.Intn(len(labels))]
		if rng.Intn(2) == 0 {
			g.AddEdge(from, label, NodeValue(ids[rng.Intn(len(ids))]))
		} else {
			g.AddEdge(from, label, randomAtom(rng))
		}
	}
	for i := 0; i < nodes/2; i++ {
		g.AddToCollection("C"+string(rune('A'+rng.Intn(3))), NodeValue(ids[rng.Intn(len(ids))]))
	}
	return g
}

func nodeName(i int) string {
	return "n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func randomAtom(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Int(int64(rng.Intn(1000)))
	case 1:
		return Float(float64(rng.Intn(100)) / 4)
	case 2:
		return Bool(rng.Intn(2) == 0)
	case 3:
		return File("f"+string(rune('0'+rng.Intn(10))), FileType(rng.Intn(5)))
	default:
		return Str("s" + string(rune('0'+rng.Intn(10))))
	}
}

// TestQuickEdgeCountConsistent: NumEdges always equals the number of
// edges enumerated.
func TestQuickEdgeCountConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed, 10+int(seed%20+20)%20)
		return g.NumEdges() == len(g.AllEdges())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickInOutDuality: every node-target edge appears in the
// target's In list, and every In entry has a matching Out edge.
func TestQuickInOutDuality(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed, 15)
		for _, id := range g.Nodes() {
			for _, e := range g.Out(id) {
				if !e.To.IsNode() {
					continue
				}
				found := false
				for _, in := range g.In(e.To.OID()) {
					if in == e {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			for _, in := range g.In(id) {
				found := false
				for _, out := range g.Out(in.From) {
					if out == in {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickReachableSubsetAndMonotone: reachable sets are subsets of
// the node set and contain the start.
func TestQuickReachableClosed(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed, 12)
		nodes := g.Nodes()
		if len(nodes) == 0 {
			return true
		}
		start := nodes[int(seed%int64(len(nodes))+int64(len(nodes)))%len(nodes)]
		reach := g.Reachable(start)
		if _, ok := reach[start]; !ok {
			return false
		}
		// Closure: every node edge from a reachable node stays inside.
		for id := range reach {
			for _, e := range g.Out(id) {
				if e.To.IsNode() {
					if _, ok := reach[e.To.OID()]; !ok {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickDumpDeterministic: rebuilding the same graph dumps
// identically.
func TestQuickDumpDeterministic(t *testing.T) {
	prop := func(seed int64) bool {
		return randomGraph(seed, 10).DumpString() == randomGraph(seed, 10).DumpString()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompareEqConsistency: Eq agrees with Compare == 0, and
// comparison with self holds for all atoms.
func TestQuickCompareEqConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomAtom(rng), randomAtom(rng)
		cmp, ok := Compare(a, b)
		if ok && (cmp == 0) != Eq(a, b) {
			return false
		}
		if !Eq(a, a) {
			return false
		}
		selfCmp, selfOK := Compare(a, a)
		return selfOK && selfCmp == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// keyByScan is Key's reference: the smallest name bound to the node in
// a scan of the whole name table, else the OID key.
func keyByScan(g *Graph, id OID) string {
	key := ""
	for name, bound := range g.names {
		if bound == id && (key == "" || name < key) {
			key = name
		}
	}
	if key == "" {
		return "&" + strconv.FormatUint(uint64(id), 10)
	}
	return key
}

// mutateRandomly applies n random mutations drawn from every way a
// node's key can move: names bound to present nodes (aliases), names
// already taken elsewhere, unnamed nodes and removals that free names,
// plus edge and membership edits.
func mutateRandomly(g *Graph, rng *rand.Rand, n int) {
	labels := []string{"a", "b", "title"}
	var removed []OID
	pick := func() (OID, bool) {
		ids := g.Nodes()
		if len(ids) == 0 {
			return InvalidOID, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(9) {
		case 0:
			g.NewNode("")
		case 1:
			g.NewNode(nodeName(rng.Intn(40)))
		case 2: // bind a second (or taken) name to a present node
			if id, ok := pick(); ok {
				g.AddNode(id, nodeName(rng.Intn(40)))
			}
		case 3: // a new or removed node whose name may already be taken
			id := g.alloc.take()
			if len(removed) > 0 && rng.Intn(2) == 0 {
				id = removed[rng.Intn(len(removed))]
			}
			g.AddNode(id, nodeName(rng.Intn(40)))
		case 4:
			if id, ok := pick(); ok {
				g.RemoveNode(id)
				removed = append(removed, id)
			}
		case 5:
			from, ok1 := pick()
			to, ok2 := pick()
			if ok1 && ok2 {
				g.AddEdge(from, labels[rng.Intn(len(labels))], NodeValue(to))
			}
		case 6:
			if id, ok := pick(); ok {
				if out := g.Out(id); len(out) > 0 {
					e := out[rng.Intn(len(out))]
					g.RemoveEdge(e.From, e.Label, e.To)
				} else {
					g.AddEdge(id, labels[rng.Intn(len(labels))], randomAtom(rng))
				}
			}
		case 7:
			if id, ok := pick(); ok {
				g.AddToCollection("C"+string(rune('A'+rng.Intn(3))), NodeValue(id))
			}
		default:
			coll := "C" + string(rune('A'+rng.Intn(3)))
			if members := g.Collection(coll); len(members) > 0 {
				g.RemoveFromCollection(coll, members[rng.Intn(len(members))])
			} else {
				g.AddToCollection(coll, randomAtom(rng))
			}
		}
	}
}

// TestQuickKeyMatchesNameScan: Key answers in O(1) what a scan of the
// name table answers, through every mutation that binds or frees a
// name.
func TestQuickKeyMatchesNameScan(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 12)
		mutateRandomly(g, rng, 80)
		for _, id := range g.Nodes() {
			if got, want := g.Key(id), keyByScan(g, id); got != want {
				t.Logf("seed %d: Key(&%d) = %q, name scan says %q", seed, id, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// copyGraph copies g into a sibling, node by node in OID order, so the
// copy keeps every OID and node name.
func copyGraph(g *Graph) *Graph {
	c := g.NewSibling(g.Name() + "'")
	for _, id := range g.Nodes() {
		c.AddNode(id, g.NodeName(id))
	}
	g.Edges(func(e Edge) bool {
		c.AddEdge(e.From, e.Label, e.To)
		return true
	})
	for _, coll := range g.Collections() {
		c.DeclareCollection(coll)
		for _, v := range g.Collection(coll) {
			c.AddToCollection(coll, v)
		}
	}
	return c
}

// TestQuickDiffScopeEqualsDiff: DiffScope over any scope that covers
// the objects and collections Diff reports — padded with unchanged,
// absent and non-canonical keys — equals Diff exactly.
func TestQuickDiffScopeEqualsDiff(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := randomGraph(seed, 12)
		mutateRandomly(old, rng, 30)
		new := copyGraph(old)
		mutateRandomly(new, rng, 1+rng.Intn(8))
		full := Diff(old, new)

		scope := &Scope{Objects: full.Objects(), Collections: full.TouchedCollections}
		for _, g := range []*Graph{old, new} {
			for _, id := range g.Nodes() {
				if rng.Intn(3) == 0 {
					scope.Objects = append(scope.Objects, g.Key(id))
				}
				if name := g.NodeName(id); name != "" && rng.Intn(3) == 0 {
					scope.Objects = append(scope.Objects, name) // maybe not a key
				}
			}
			for _, coll := range g.Collections() {
				if rng.Intn(2) == 0 {
					scope.Collections = append(scope.Collections, coll)
				}
			}
		}
		scope.Objects = append(scope.Objects, "&999999", "nosuch")
		scope.Collections = append(scope.Collections, "NoSuch")
		rng.Shuffle(len(scope.Objects), func(i, j int) {
			scope.Objects[i], scope.Objects[j] = scope.Objects[j], scope.Objects[i]
		})
		if got := DiffScope(old, new, scope); !reflect.DeepEqual(got, full) {
			t.Logf("seed %d:\nscoped %+v\nfull   %+v", seed, got, full)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
