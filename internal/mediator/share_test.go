package mediator

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/repository"
	"strudel/internal/wrapper"
)

// deepMerge is the warehouse build as it was before graphs shared
// records: an edge-by-edge copy of src into g. Wrapped sources bind
// every node's creation name unless another source's node holds it,
// so copying creation names binds what src binds.
func deepMerge(g, src *graph.Graph) {
	ids := src.Nodes()
	for _, id := range ids {
		g.AddNode(id, src.NodeName(id))
	}
	for _, id := range ids {
		for _, e := range src.Out(id) {
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

// oidDump renders a graph node for node by OID: creation name, key,
// out-edges in order, in-edges sorted (their order is not part of a
// graph's content), then collections with their members in order.
func oidDump(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	for _, id := range g.Nodes() {
		fmt.Fprintf(&b, "&%d %q key %s\n", id, g.NodeName(id), g.Key(id))
		for _, e := range g.Out(id) {
			fmt.Fprintf(&b, "  %s\n", e)
		}
		var in []string
		for _, e := range g.In(id) {
			in = append(in, e.String())
		}
		sort.Strings(in)
		fmt.Fprintf(&b, "  in %v\n", in)
	}
	for _, c := range g.Collections() {
		fmt.Fprintf(&b, "collection %s %v\n", c, g.Collection(c))
	}
	return b.String()
}

// TestWarehouseIsMergeOfCommittedSources: across random re-wraps of
// one of several BibTeX sources, some of whose entry names other
// sources use too, the committed warehouse is node for node, OIDs
// included, what merging copies of the committed source graphs builds;
// and the previous warehouse, whose records the new one shares, still
// dumps as it did when it was committed.
func TestWarehouseIsMergeOfCommittedSources(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		repo := repository.New("")
		m := New(repo, "W")
		models := make([]*editModel, 2+rng.Intn(3))
		for i := range models {
			md := &editModel{bibtex: true}
			for j := 1 + rng.Intn(5); j > 0; j-- {
				if name := poolNames[rng.Intn(len(poolNames))]; !md.has(name) {
					md.recs = append(md.recs, newRecord(rng, name))
				}
			}
			models[i] = md
			m.AddSourceDynamic(&Source{Name: fmt.Sprintf("s%d", i), Wrapper: wrapper.BibTeX{OrderedAuthors: true},
				Fetch: func() (string, error) { return md.text(), nil }})
		}
		prev, err := m.Refresh()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prevDump := oidDump(prev)
		for step := 0; step < 15; step++ {
			models[rng.Intn(len(models))].edit(rng)
			wh, err := m.Refresh()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			want := repo.Database().Sibling("W")
			for i := range models {
				src, ok := repo.Graph(fmt.Sprintf("src:s%d", i))
				if !ok {
					t.Fatalf("seed %d step %d: source s%d is not committed", seed, step, i)
				}
				deepMerge(want, src)
			}
			if got, want := oidDump(wh), oidDump(want); got != want {
				t.Fatalf("seed %d step %d: warehouse\n%s\nmerge of the committed sources\n%s", seed, step, got, want)
			}
			if got := oidDump(prev); got != prevDump {
				t.Fatalf("seed %d step %d: the previous warehouse changed:\n%s\nwas\n%s", seed, step, got, prevDump)
			}
			prev, prevDump = wh, oidDump(wh)
		}
	}
}
