package sitegen

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strudel/internal/datadef"
	"strudel/internal/graph"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// siteGraphFrom evaluates the fig3 query over a datadef text.
func siteGraphFrom(t *testing.T, data string) *graph.Graph {
	t.Helper()
	res, err := datadef.Parse("BIBTEX", data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := struql.Eval(struql.MustParse(fig3Query), res.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.Output
}

func genFor(t *testing.T, siteGraph *graph.Graph) *Generator {
	t.Helper()
	return New(siteGraph, Config{
		Templates: fig7Templates(t),
		EmbedOnly: map[string]bool{"PaperPresentation": true},
		Index:     "RootPage",
	})
}

// coneOf resolves a site-graph delta to the reverse-reachability cone
// Regenerate expects.
func coneOf(siteGraph *graph.Graph, d *graph.Delta) map[graph.OID]struct{} {
	var starts []graph.OID
	for _, key := range append(append([]string{}, d.AddedObjects...), d.ChangedObjects...) {
		if oid, ok := siteGraph.ResolveKey(key); ok {
			starts = append(starts, oid)
		}
	}
	return siteGraph.ReverseReachable(starts)
}

// sameSite fails unless got has exactly want's pages, byte for byte,
// with the same titles and entity tags.
func sameSite(t *testing.T, got, want *Site) {
	t.Helper()
	if len(got.Pages) != len(want.Pages) {
		t.Fatalf("site has %d pages %v, Generate has %d %v", len(got.Pages), got.Paths(), len(want.Pages), want.Paths())
	}
	for path, wp := range want.Pages {
		gp, ok := got.Pages[path]
		if !ok {
			t.Errorf("missing page %s", path)
			continue
		}
		if gp.HTML != wp.HTML || gp.Title != wp.Title || gp.ETag != wp.ETag {
			t.Errorf("%s differs from Generate", path)
		}
	}
	if got.Collisions != want.Collisions {
		t.Errorf("collisions = %d, Generate has %d", got.Collisions, want.Collisions)
	}
}

func TestRegenerateDeltaTitleTouch(t *testing.T) {
	oldGraph := siteGraphFrom(t, fig2Data)
	prev, err := genFor(t, oldGraph).Generate()
	if err != nil {
		t.Fatal(err)
	}
	newData := strings.Replace(fig2Data, `title "Specifying Representations..."`,
		`title "Specifying NEW Representations"`, 1)
	newGraph := siteGraphFrom(t, newData)
	d := graph.Diff(oldGraph, newGraph)
	if d.Empty() {
		t.Fatal("site delta unexpectedly empty")
	}

	gen := genFor(t, newGraph)
	got, st, err := gen.Regenerate(context.Background(), prev, coneOf(newGraph, d))
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sameSite(t, got, want)
	if st.Full {
		t.Fatalf("expected selective rebuild, got full (%s)", st.Reason)
	}
	if st.Reused == 0 || st.Rendered == 0 {
		t.Fatalf("stats = %+v, want a mix of reused and rendered", st)
	}
	// pub1 is a 1997 paper: the 1998 year page cannot observe the edit.
	for _, p := range st.RenderedPaths {
		if p == "YearPage_1998.html" {
			t.Errorf("YearPage_1998 re-rendered needlessly: %v", st.RenderedPaths)
		}
	}
	if st.Rendered+st.Reused != len(want.Pages) {
		t.Errorf("rendered %d + reused %d != %d pages", st.Rendered, st.Reused, len(want.Pages))
	}
}

func TestRegenerateDeltaNilPrevIsFull(t *testing.T) {
	g := genFor(t, siteGraphFrom(t, fig2Data))
	site, st, err := g.Regenerate(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || st.Reason != "no previous site" || st.Reused != 0 || st.Rendered != len(site.Pages) {
		t.Fatalf("stats = %+v, want full render of %d pages", st, len(site.Pages))
	}
	want, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sameSite(t, site, want)
}

func TestRegenerateDeltaPrunesRemovedPages(t *testing.T) {
	oldGraph := siteGraphFrom(t, fig2Data)
	prev, err := genFor(t, oldGraph).Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Dropping pub2's second category removes its CategoryPage.
	newData := strings.Replace(fig2Data, "    category \"Semistructured Data\"\n", "", 1)
	newGraph := siteGraphFrom(t, newData)
	d := graph.Diff(oldGraph, newGraph)
	got, st, err := genFor(t, newGraph).Regenerate(context.Background(), prev, coneOf(newGraph, d))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PrunedPaths) != 1 || !strings.Contains(st.PrunedPaths[0], "Semistructured") {
		t.Fatalf("pruned = %v, want the dropped category page", st.PrunedPaths)
	}

	// SyncTo removes the stale file from a directory holding the old site.
	dir := t.TempDir()
	if err := prev.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	pruned, err := got.SyncTo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 || pruned[0] != st.PrunedPaths[0] {
		t.Fatalf("SyncTo pruned %v, want %v", pruned, st.PrunedPaths)
	}
	if _, err := os.Stat(filepath.Join(dir, st.PrunedPaths[0])); !os.IsNotExist(err) {
		t.Errorf("stale page still on disk: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(got.Pages) {
		t.Errorf("dir has %d files, site has %d pages", len(entries), len(got.Pages))
	}
}

// TestRegenerateFallbacks: every case where name-keyed adoption is
// unsafe renders the whole site, equal to Generate, and names why.
func TestRegenerateFallbacks(t *testing.T) {
	cfg := Config{
		Templates: map[string]*template.Template{
			"Doc":  template.MustParse("Doc", `<SFMT title> <SFMT see>`),
			"Home": template.MustParse("Home", `home <SFMT title>`),
		},
		Index: "Home",
	}
	// doc adds a page object of collection Doc.
	doc := func(g *graph.Graph, name, title string) graph.OID {
		oid := g.NewNode(name)
		g.AddToCollection("Doc", graph.NodeValue(oid))
		if err := g.AddEdge(oid, "title", graph.Str(title)); err != nil {
			t.Fatal(err)
		}
		return oid
	}
	named := func(g *graph.Graph, name string) graph.OID {
		oid, ok := g.NodeByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		return oid
	}
	cases := []struct {
		name   string
		build  func(g *graph.Graph)
		edit   func(g *graph.Graph) []graph.OID // returns the touched objects
		reason string
	}{
		{
			name: "unnamed page object in prev",
			build: func(g *graph.Graph) {
				doc(g, "Doc(a)", "A")
				doc(g, "", "anonymous")
			},
			edit: func(g *graph.Graph) []graph.OID {
				a := named(g, "Doc(a)")
				g.AddEdge(a, "title", graph.Str("A2"))
				return []graph.OID{a}
			},
			reason: "unnamed page object",
		},
		{
			name:  "unnamed page object in the cone",
			build: func(g *graph.Graph) { doc(g, "Doc(a)", "A") },
			edit: func(g *graph.Graph) []graph.OID {
				return []graph.OID{doc(g, "", "anonymous")}
			},
			reason: "unnamed page object",
		},
		{
			name: "collision in prev",
			build: func(g *graph.Graph) {
				doc(g, "Doc(x.y)", "dot")
				doc(g, "Doc(x y)", "space")
				doc(g, "Doc(b)", "B")
			},
			edit: func(g *graph.Graph) []graph.OID {
				b := named(g, "Doc(b)")
				g.AddEdge(b, "title", graph.Str("B2"))
				return []graph.OID{b}
			},
			reason: "path collision",
		},
		{
			name:  "collision in the new assignment",
			build: func(g *graph.Graph) { doc(g, "Doc(x.y)", "dot") },
			edit: func(g *graph.Graph) []graph.OID {
				return []graph.OID{doc(g, "Doc(x y)", "space")}
			},
			reason: "path collision",
		},
		{
			name: "cone page path moved",
			build: func(g *graph.Graph) {
				a := doc(g, "Doc(a)", "A")
				b := doc(g, "Doc(b)", "B")
				g.AddEdge(b, "see", graph.NodeValue(a))
			},
			edit: func(g *graph.Graph) []graph.OID {
				// Doc(a) becomes the index page: its path moves, and the
				// link to it in Doc(b) must follow.
				a := named(g, "Doc(a)")
				g.AddEdge(a, "HTML-template", graph.Str("Home"))
				return []graph.OID{a}
			},
			reason: "path shift for Doc(a)",
		},
	}
	for _, tc := range cases {
		// Regenerate never assumes stable OIDs: it re-keys adopted pages
		// by name.
		t.Run(tc.name+"/stable=false", func(t *testing.T) {
			g := graph.New("site")
			tc.build(g)
			prev, err := New(g, cfg).Generate()
			if err != nil {
				t.Fatal(err)
			}
			cone := g.ReverseReachable(tc.edit(g))
			got, st, err := New(g, cfg).Regenerate(context.Background(), prev, cone)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Full || st.Reason != tc.reason {
				t.Fatalf("stats = %+v, want a full render for %q", st, tc.reason)
			}
			if st.Reused != 0 || st.Rendered != len(got.Pages) || len(st.RenderedPaths) != len(got.Pages) {
				t.Errorf("full render reports %d rendered (%d paths), %d reused of %d pages",
					st.Rendered, len(st.RenderedPaths), st.Reused, len(got.Pages))
			}
			want, err := New(g, cfg).Generate()
			if err != nil {
				t.Fatal(err)
			}
			sameSite(t, got, want)
		})
	}
}
