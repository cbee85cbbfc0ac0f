package strudel_test

// Cross-module integration tests: the full Fig. 1 pipeline, the
// equivalence of materialized and click-time evaluation, persistence
// of built sites, and link integrity of the generated HTML.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"strudel/internal/core"
	"strudel/internal/graph"
	"strudel/internal/incremental"
	"strudel/internal/repository"
	"strudel/internal/schema"
	"strudel/internal/server"
	"strudel/internal/sitegen"
	"strudel/internal/struql"
	"strudel/internal/template"
	"strudel/internal/workload"
)

func bibBuilder(t *testing.T, n int, seed int64) (*core.Builder, *workload.SiteSpec) {
	t.Helper()
	spec := workload.BibliographySpec()
	b := core.NewBuilder(spec.Name)
	b.SetDataGraph(workload.Bibliography(n, seed))
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetEmbedOnly("PaperPresentation")
	b.SetIndex(spec.Index)
	b.SetRootCollection(spec.RootCollection)
	return b, spec
}

// TestStaticDynamicEquivalence verifies that click-time evaluation
// computes exactly the pages full materialization does: same page set,
// same per-page edges, for every page of the site.
func TestStaticDynamicEquivalence(t *testing.T) {
	data := workload.Bibliography(40, 11)
	spec := workload.BibliographySpec()
	q := struql.MustParse(spec.Query)

	full, err := struql.Eval(q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := incremental.Decompose(q, data, nil)
	if _, err := dec.MaterializeAll(spec.RootCollection); err != nil {
		t.Fatal(err)
	}

	checked := 0
	for _, id := range full.Output.Nodes() {
		name := full.Output.NodeName(id)
		if name == "" || !strings.Contains(name, "(") {
			continue
		}
		ref, ok := dec.Resolve(name)
		if !ok {
			t.Errorf("dynamic evaluation never discovered %s", name)
			continue
		}
		pd, err := dec.Page(ref)
		if err != nil {
			t.Fatal(err)
		}
		staticEdges := full.Output.Out(id)
		if len(pd.Edges) != len(staticEdges) {
			t.Errorf("%s: dynamic %d edges, static %d", name, len(pd.Edges), len(staticEdges))
			continue
		}
		for _, se := range staticEdges {
			found := false
			for _, de := range pd.Edges {
				if de.Label != se.Label {
					continue
				}
				if de.Page != nil && se.To.IsNode() &&
					de.Page.Key() == full.Output.NodeName(se.To.OID()) {
					found = true
					break
				}
				if de.Page == nil && de.Value == se.To {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: dynamic page missing edge %v", name, se)
			}
		}
		checked++
	}
	if checked < 40 {
		t.Errorf("only %d pages checked", checked)
	}
}

// TestClickTimeMatchesMaterialized: materialization and click-time
// evaluation are two ways to evaluate one site, so they serve the same
// bytes. Each shape is built statically and at click time over the
// same data, with the renderer's URLs mapped to the static paths by
// page name, and the whole site is discovered. Every static page must
// be discovered at click time and render to the static bytes, and
// each of its labels must list its edges in the order struql.Eval
// built them. Whole-page edge order is not compared: on the Fig. 3
// homepage static construction adds a presentation's Abstract after
// its first binding row, the per-page query after all of them, and no
// template can observe that, since every step of a template path
// names a label.
func TestClickTimeMatchesMaterialized(t *testing.T) {
	withData := func(spec *workload.SiteSpec, data *graph.Graph) func(*testing.T) *core.Builder {
		return func(t *testing.T) *core.Builder {
			b := specBuilder(spec)(t)
			b.SetDataGraph(data)
			return b
		}
	}
	mediated := func(spec *workload.SiteSpec) func(*testing.T) *core.Builder {
		src := workload.Organization(120, 25, 6, 7)
		return func(t *testing.T) *core.Builder {
			b := specBuilder(spec)(t)
			for _, s := range []struct{ name, kind, content string }{
				{"people.csv", "csv", src.PeopleCSV},
				{"departments.csv", "csv", src.DepartmentsCSV},
				{"projects.txt", "structured", src.ProjectsTxt},
			} {
				if err := b.AddSource(s.name, s.kind, s.content); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}
	}
	// Two edges to atoms that print alike, Int(5) and Float(5).
	intFloat := graph.New("G")
	intFloat.DeclareCollection("C")
	x1 := intFloat.NewNode("x1")
	intFloat.AddToCollection("C", graph.NodeValue(x1))
	intFloat.AddEdge(x1, "v", graph.Int(5))
	intFloat.AddEdge(x1, "v", graph.Float(5))
	intFloatSpec := &workload.SiteSpec{
		Name: "int-float",
		Query: `INPUT G
CREATE F("fixed")
COLLECT Roots(F("fixed"))
WHERE C(x), x -> "v" -> v
LINK F("fixed") -> "val" -> v
OUTPUT S`,
		Templates:      map[string]*template.Template{"F": template.MustParse("F", `<SFMT val DELIM=", ">`)},
		RootCollection: "Roots",
	}
	// Pages that print a data-graph node, which has a name there.
	dataNode := graph.New("G")
	for _, row := range []struct{ id, name string }{{"a", "Ann"}, {"b", "Bo"}} {
		x := dataNode.NewNode(row.id)
		dataNode.AddToCollection("C", graph.NodeValue(x))
		dataNode.AddEdge(x, "name", graph.Str(row.name))
	}
	dataNodeSpec := &workload.SiteSpec{
		Name: "data-node",
		Query: `INPUT G
WHERE C(x), x -> "name" -> n
CREATE P(x)
LINK P(x) -> "name" -> n, P(x) -> "orig" -> x
COLLECT Roots(P(x))
OUTPUT S`,
		Templates:      map[string]*template.Template{"P": template.MustParse("P", `<SFMT name> [<SFMT orig>]`)},
		RootCollection: "Roots",
	}
	shapes := []struct {
		name  string
		build func(*testing.T) *core.Builder
	}{
		{"homepage", withData(workload.BibliographySpec(), workload.Bibliography(40, 11))},
		{"partitioned", withData(workload.PartitionedSpec(), workload.Bibliography(200, 3))},
		{"cnn", withData(workload.ArticleSpec(false), workload.Articles(100, 1))},
		{"cnn-sports", withData(workload.ArticleSpec(true), workload.Articles(100, 1))},
		{"org-internal", mediated(workload.OrgSpec(false))},
		{"org-external", mediated(workload.OrgSpec(true))},
		{"int-float", withData(intFloatSpec, intFloat)},
		{"data-node", withData(dataNodeSpec, dataNode)},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			b := sh.build(t)
			res, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			r, err := b.BuildDynamic()
			if err != nil {
				t.Fatal(err)
			}
			paths := map[string]string{}
			for _, pg := range res.Site.Pages {
				paths[pg.Name] = pg.Path
			}
			r.URLFor = func(key string) string {
				if p, ok := paths[key]; ok {
					return p
				}
				return "/not-materialized/" + key
			}
			if _, err := r.Dec.MaterializeAll("Roots"); err != nil {
				t.Fatal(err)
			}
			differ := 0
			for _, path := range res.Site.Paths() {
				pg := res.Site.Pages[path]
				ref, ok := r.Dec.Resolve(pg.Name)
				if !ok {
					t.Errorf("%s: never discovered at click time", pg.Name)
					continue
				}
				got, err := r.RenderPage(ref)
				if err != nil {
					t.Errorf("%s: %v", pg.Name, err)
					continue
				}
				if got != pg.HTML {
					if differ++; differ <= 3 {
						t.Errorf("%s renders differently at click time:\n got: %q\nwant: %q", pg.Name, got, pg.HTML)
					}
				}
				pd, err := r.Dec.Page(ref)
				if err != nil {
					t.Fatal(err)
				}
				// A data-graph node is a value on both sides, and any
				// other node a page, known by its name.
				static, dynamic := map[string][]string{}, map[string][]string{}
				for _, e := range res.SiteGraph.Out(pg.OID) {
					id := "V" + string(e.To.AppendKey(nil))
					if e.To.IsNode() && !res.DataGraph.HasNode(e.To.OID()) {
						id = "P" + res.SiteGraph.NodeName(e.To.OID())
					}
					static[e.Label] = append(static[e.Label], id)
				}
				for _, e := range pd.Edges {
					id := "V" + string(e.Value.AppendKey(nil))
					if e.Page != nil {
						id = "P" + e.Page.Key()
					}
					dynamic[e.Label] = append(dynamic[e.Label], id)
				}
				if !reflect.DeepEqual(static, dynamic) {
					t.Errorf("%s: edges per label differ:\n click time %q\n static     %q", pg.Name, dynamic, static)
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d pages render differently at click time", differ, len(res.Site.Pages))
			}
		})
	}
}

// TestLinkIntegrity crawls the generated HTML: every relative href
// must resolve to a generated page.
func TestLinkIntegrity(t *testing.T) {
	b, _ := bibBuilder(t, 30, 7)
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	hrefs := regexp.MustCompile(`href="([^"]+)"`)
	for path, page := range res.Site.Pages {
		for _, m := range hrefs.FindAllStringSubmatch(page.HTML, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "papers/") ||
				strings.HasPrefix(target, "abstracts/") || strings.HasPrefix(target, "images/") {
				continue // external URL or data file
			}
			if _, ok := res.Site.Pages[target]; !ok {
				t.Errorf("%s links to missing page %q", path, target)
			}
		}
	}
}

// TestStaticServingMatchesFiles serves the built site over HTTP and
// verifies responses equal the written files.
func TestStaticServingMatchesFiles(t *testing.T) {
	b, _ := bibBuilder(t, 10, 3)
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.Site.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewEdge(server.NewSiteSource(res.Site), server.EdgeConfig{}))
	defer srv.Close()
	for _, path := range res.Site.Paths() {
		resp, err := http.Get(srv.URL + "/" + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != res.Site.Pages[path].HTML {
			t.Errorf("%s: served content differs from generated", path)
		}
	}
}

// TestSiteGraphPersistence saves a built site graph and regenerates
// identical HTML from the reloaded repository.
func TestSiteGraphPersistence(t *testing.T) {
	data := workload.Bibliography(15, 5)
	spec := workload.BibliographySpec()
	q := struql.MustParse(spec.Query)
	res, err := struql.Eval(q, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(site *graph.Graph) map[string]*sitegen.Page {
		s, err := sitegen.New(site, sitegen.Config{
			Templates: spec.Templates,
			EmbedOnly: map[string]bool{"PaperPresentation": true},
			Index:     spec.Index,
		}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		return s.Pages
	}
	before := gen(res.Output)

	dir := filepath.Join(t.TempDir(), "repo")
	repo := repository.New(dir)
	repo.Put(data)
	repo.Put(res.Output)
	if err := repo.Save(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := repository.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	site2, ok := reloaded.Graph(res.Output.Name())
	if !ok {
		t.Fatal("site graph lost")
	}
	after := gen(site2)
	if len(before) != len(after) {
		t.Fatalf("page count changed: %d vs %d", len(before), len(after))
	}
	for path, p := range before {
		if after[path] == nil || after[path].HTML != p.HTML {
			t.Errorf("%s differs after persistence round trip", path)
		}
	}
}

// TestExternalVersionHidesProprietary builds the org site's external
// version and verifies no proprietary markers leak into its HTML,
// while the internal version shows them — with the constraint
// machinery confirming the same thing structurally.
func TestExternalVersionHidesProprietary(t *testing.T) {
	src := workload.Organization(60, 12, 4, 13)
	build := func(external bool) *core.Result {
		spec := workload.OrgSpec(external)
		b := core.NewBuilder(spec.Name)
		b.AddSource("people.csv", "csv", src.PeopleCSV)
		b.AddSource("departments.csv", "csv", src.DepartmentsCSV)
		b.AddSource("projects.txt", "structured", src.ProjectsTxt)
		if err := b.AddQuery(spec.Query); err != nil {
			t.Fatal(err)
		}
		b.AddTemplates(spec.Templates)
		b.SetIndex(spec.Index)
		res, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	internal := build(false)
	external := build(true)
	leak := func(pages map[string]*sitegen.Page, marker string) bool {
		for _, p := range pages {
			if strings.Contains(p.HTML, marker) {
				return true
			}
		}
		return false
	}
	if !leak(internal.Site.Pages, "[internal]") {
		t.Error("internal version should show proprietary markers")
	}
	if leak(external.Site.Pages, "[internal]") {
		t.Error("external version leaked proprietary markers")
	}
	if leak(external.Site.Pages, "Sponsored by") {
		t.Error("external version leaked sponsors")
	}
	// Both versions share the same site graph shape.
	if internal.Stats.SiteNodes != external.Stats.SiteNodes ||
		internal.Stats.SiteEdges != external.Stats.SiteEdges {
		t.Errorf("site graphs differ: %+v vs %+v", internal.Stats, external.Stats)
	}
}

// TestMediatedEndToEnd runs wrappers → mediator → query → constraints
// → HTML → dynamic serving on one builder.
func TestMediatedEndToEnd(t *testing.T) {
	src := workload.Organization(30, 6, 3, 21)
	spec := workload.OrgSpec(false)
	b := core.NewBuilder(spec.Name)
	b.AddSource("people.csv", "csv", src.PeopleCSV)
	b.AddSource("departments.csv", "csv", src.DepartmentsCSV)
	b.AddSource("projects.txt", "structured", src.ProjectsTxt)
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetIndex(spec.Index)
	b.SetRootCollection(spec.RootCollection)
	b.AddConstraint(schema.Reachable{Root: spec.Root})
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	// The same builder serves dynamically.
	r, err := b.BuildDynamic()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.DynamicEdge(func() *incremental.Renderer { return r }, spec.RootCollection, server.EdgeConfig{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "Research") {
		t.Errorf("dynamic root = %d %q", resp.StatusCode, body)
	}
}
