package core

import (
	"strings"
	"testing"

	"strudel/internal/datadef"
	"strudel/internal/graph"
	"strudel/internal/schema"
	"strudel/internal/telemetry"
	"strudel/internal/workload"
)

// retitle swaps one publication's title in place; the builder's change
// journal records the edit.
func retitle(t *testing.T, g *graph.Graph, name, newTitle string) {
	t.Helper()
	id, ok := g.NodeByName(name)
	if !ok {
		t.Fatalf("%s missing", name)
	}
	old, ok := g.First(id, "title")
	if !ok {
		t.Fatalf("%s has no title", name)
	}
	if !g.RemoveEdge(id, "title", old) {
		t.Fatalf("cannot remove %s title", name)
	}
	if err := g.AddEdge(id, "title", graph.Str(newTitle)); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildWithDeltaSelective is the regression guard of the delta
// pipeline's selective branch: touching one object re-renders only
// pages the schema analysis of the journaled delta marks affected —
// verified through the telemetry counters — and the result is
// byte-identical to a from-scratch build.
func TestRebuildWithDeltaSelective(t *testing.T) {
	const n = 30
	reg := telemetry.NewRegistry()
	b := bibBuilder(t, n)
	b.SetTelemetry(reg)
	data := workload.Bibliography(n, 42)
	b.SetDataGraph(data)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	retitle(t, data, "pub7", "A Fresh Title")
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Incremental
	if info == nil || info.Mode != "selective" {
		t.Fatalf("incremental info = %+v, want selective mode", info)
	}
	if info.Site.Reused == 0 {
		t.Fatal("a one-object touch must reuse pages")
	}
	if info.Site.Rendered >= len(res.Site.Pages) {
		t.Fatalf("rendered %d of %d pages — not selective", info.Site.Rendered, len(res.Site.Pages))
	}
	if d := info.Data; d == nil || len(d.ChangedObjects) != 1 || d.ChangedObjects[0] != "pub7" {
		t.Errorf("rebuild keyed on data delta %+v, want pub7's edit", d)
	}

	// Guard: every re-rendered page's class lies in the schema
	// analysis's render closure — the delta rebuild renders no page the
	// analysis does not mark affected.
	closure := info.Impact.RenderClosure(res.Schema)
	for _, path := range info.Site.RenderedPaths {
		p := res.Site.Pages[path]
		if p == nil {
			t.Fatalf("rendered path %s missing from site", path)
		}
		class := p.Name
		if i := strings.IndexByte(class, '('); i > 0 {
			class = class[:i]
		}
		if !closure[class] {
			t.Errorf("page %s (class %s) re-rendered outside the render closure %v", path, class, closure)
		}
	}

	// The telemetry counters saw the same outcome the stats report.
	rendered := reg.Counter("strudel_delta_pages_total",
		"Pages processed by incremental rebuilds, by outcome (rendered, reused, pruned).",
		"action", "rendered").Value()
	reused := reg.Counter("strudel_delta_pages_total",
		"Pages processed by incremental rebuilds, by outcome (rendered, reused, pruned).",
		"action", "reused").Value()
	if int(rendered) != info.Site.Rendered || int(reused) != info.Site.Reused {
		t.Errorf("counters rendered=%d reused=%d, stats rendered=%d reused=%d",
			rendered, reused, info.Site.Rendered, info.Site.Reused)
	}
	if res.Stats.PagesReused != info.Site.Reused {
		t.Errorf("Stats.PagesReused = %d, want %d", res.Stats.PagesReused, info.Site.Reused)
	}

	// Byte-identical to a from-scratch build over identically edited data.
	fresh := bibBuilder(t, n)
	freshData := workload.Bibliography(n, 42)
	retitle(t, freshData, "pub7", "A Fresh Title")
	fresh.SetDataGraph(freshData)
	want, err := fresh.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Site.Pages) != len(want.Site.Pages) {
		t.Fatalf("delta site has %d pages, full build has %d", len(res.Site.Pages), len(want.Site.Pages))
	}
	for path, wp := range want.Site.Pages {
		gp := res.Site.Pages[path]
		if gp == nil || gp.HTML != wp.HTML {
			t.Errorf("%s differs from full rebuild", path)
		}
	}
}

// TestDifferentialCollisionReevaluates: a path collision that appears
// in the re-evaluated site graph sends the rebuild to a full render,
// because name-keyed adoption may order the collision suffixes
// differently from a from-scratch build, and the summary names the
// cause.
func TestDifferentialCollisionReevaluates(t *testing.T) {
	const query = `INPUT D
WHERE Items(x), x -> "title" -> t
CREATE Page(x)
LINK Page(x) -> "title" -> t
OUTPUT Site`
	// Both item names sanitize to the same page path.
	item := func(g *graph.Graph, name, title string) {
		oid := g.NewNode(name)
		g.AddToCollection("Items", graph.NodeValue(oid))
		if err := g.AddEdge(oid, "title", graph.Str(title)); err != nil {
			t.Fatal(err)
		}
	}
	site := func(data *graph.Graph) *Builder {
		b := NewBuilder("collide")
		b.SetDataGraph(data)
		if err := b.AddQuery(query); err != nil {
			t.Fatal(err)
		}
		if err := b.AddTemplate("Page", `<SFMT title>`); err != nil {
			t.Fatal(err)
		}
		return b
	}
	data := graph.New("D")
	item(data, "a.b", "dot")
	b := site(data)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	item(data, "a b", "space")
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Incremental
	if info == nil || info.Mode != "full" || info.Summary() != "rebuild: full (path collision)" {
		t.Fatalf("incremental info = %+v (%s), want a full rebuild for the path collision", info, info.Summary())
	}
	if res.Site.Collisions != 1 {
		t.Errorf("collisions = %d, want 1", res.Site.Collisions)
	}
	scratch := graph.New("D")
	item(scratch, "a.b", "dot")
	item(scratch, "a b", "space")
	want, err := site(scratch).Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Site.Pages) != len(want.Site.Pages) {
		t.Fatalf("rebuild has %d pages, scratch has %d", len(res.Site.Pages), len(want.Site.Pages))
	}
	for path, wp := range want.Site.Pages {
		if gp := res.Site.Pages[path]; gp == nil || gp.HTML != wp.HTML || gp.ETag != wp.ETag {
			t.Errorf("%s differs from the scratch build", path)
		}
	}
}

func TestRebuildWithDeltaNoop(t *testing.T) {
	b := bibBuilder(t, 10)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental == nil || res.Incremental.Mode != "noop" {
		t.Fatalf("incremental info = %+v, want noop", res.Incremental)
	}
	if res.Site != prev.Site {
		t.Error("noop rebuild must reuse the previous site wholesale")
	}
	if res.Stats.PagesReused != len(prev.Site.Pages) {
		t.Errorf("PagesReused = %d, want %d", res.Stats.PagesReused, len(prev.Site.Pages))
	}
}

// TestRebuildDynamicAdoptsCache: a title-only source edit must carry
// the cached pages of label-constrained classes (YearPage,
// CategoryPage — their blocks filter on l = "year" / l = "category")
// into the refreshed renderer, while affected classes recompute.
func TestRebuildDynamicAdoptsCache(t *testing.T) {
	content := workload.BibliographyBibTeX(8, 3)
	spec := workload.BibliographySpec()
	reg := telemetry.NewRegistry()
	b := NewBuilder("dyn")
	b.SetTelemetry(reg)
	if err := b.AddSourceFunc("refs.bib", "bibtex", func() (string, error) { return content, nil }); err != nil {
		t.Fatal(err)
	}
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetEmbedOnly("PaperPresentation")
	b.SetRootCollection(spec.RootCollection)

	prev, err := b.BuildDynamic()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prev.Dec.MaterializeAll(spec.RootCollection); err != nil {
		t.Fatal(err)
	}
	if len(prev.Dec.CachedKeys()) == 0 {
		t.Fatal("materialization left the cache empty")
	}

	// Unchanged sources: the previous renderer is kept as-is.
	same, err := b.RebuildDynamic(prev)
	if err != nil {
		t.Fatal(err)
	}
	if same != prev {
		t.Fatal("unchanged refresh must return the previous renderer")
	}

	old := content
	content = strings.Replace(content, "title = {", "title = {Revised ", 1)
	if content == old {
		t.Fatal("edit did not change the source")
	}
	next, err := b.RebuildDynamic(prev)
	if err != nil {
		t.Fatal(err)
	}
	if next == prev {
		t.Fatal("edited source must produce a new renderer")
	}
	adopted := reg.Counter("strudel_dynamic_cache_events_total",
		"Dynamic page-cache events (hit, miss, adopt).", "event", "adopt").Value()
	if adopted == 0 {
		t.Fatalf("no cache entries adopted; cached keys were %v", prev.Dec.CachedKeys())
	}
	for _, key := range next.Dec.CachedKeys() {
		if strings.HasPrefix(key, "PaperPresentation") || strings.HasPrefix(key, "AbstractPage") {
			t.Errorf("affected class entry %s survived the refresh", key)
		}
	}
	// Adopted entries must render, and recomputed pages must see the
	// edit: the root page lists years (adopted), and rendering a paper
	// page recomputes with the revised title.
	roots, err := next.Dec.Roots(spec.RootCollection)
	if err != nil || len(roots) == 0 {
		t.Fatalf("roots after refresh: %v, %v", roots, err)
	}
	html, err := next.RenderPage(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if html == "" {
		t.Fatal("root page rendered empty")
	}
}

// TestRebuildMediatedRefresh drives the incremental path end to end
// through the mediator: the refresh report's warehouse delta feeds the
// rebuild, and an unchanged source yields a noop.
func TestRebuildMediatedRefresh(t *testing.T) {
	content := `
collection Publications { }
object pub1 in Publications { title "Alpha" year 1997 }
object pub2 in Publications { title "Beta" year 1998 }
`
	spec := workload.BibliographySpec()
	b := NewBuilder("med")
	if err := b.AddSourceFunc("bib", "datadef", func() (string, error) { return content, nil }); err != nil {
		t.Fatal(err)
	}
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetEmbedOnly("PaperPresentation")
	b.SetIndex(spec.Index)

	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged source: the rebuild is a noop.
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental.Mode != "noop" {
		t.Fatalf("unchanged source rebuild mode = %s, want noop (delta %v)",
			res.Incremental.Mode, res.Refresh.Warehouse)
	}

	// Edit the source: the rebuild is selective and matches scratch.
	content = strings.Replace(content, `"Alpha"`, `"Alpha v2"`, 1)
	res2, err := b.Rebuild(res)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Incremental.Mode != "selective" {
		t.Fatalf("edited source rebuild mode = %s, want selective (%s)",
			res2.Incremental.Mode, res2.Incremental.Summary())
	}
	if res2.Incremental.Site.Reused == 0 {
		t.Error("selective rebuild must reuse unaffected pages")
	}
	scratch := NewBuilder("med2")
	if err := scratch.AddSourceFunc("bib", "datadef", func() (string, error) { return content, nil }); err != nil {
		t.Fatal(err)
	}
	if err := scratch.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	scratch.AddTemplates(spec.Templates)
	scratch.SetEmbedOnly("PaperPresentation")
	scratch.SetIndex(spec.Index)
	want, err := scratch.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Site.Pages) != len(want.Site.Pages) {
		t.Fatalf("delta site has %d pages, scratch has %d", len(res2.Site.Pages), len(want.Site.Pages))
	}
	for path, wp := range want.Site.Pages {
		gp := res2.Site.Pages[path]
		if gp == nil || gp.HTML != wp.HTML {
			t.Errorf("%s differs from scratch build", path)
		}
	}
}

// TestRebuildAfterFailedRebuildServesEdit: a rebuild that fails after
// the mediator committed a source edit (here a template that embeds
// its page in itself) leaves the mediator one version ahead of the
// last good result. Once the failure clears, rebuilding that result
// must serve the edit — the refresh that follows finds the sources
// unchanged, and its empty warehouse delta does not reach from the
// result's data to the committed warehouse.
func TestRebuildAfterFailedRebuildServesEdit(t *testing.T) {
	content := `
collection Publications { }
object pub1 in Publications { title "Alpha" }
object pub2 in Publications { title "Beta" }
`
	const query = `INPUT BIB
WHERE Publications(x), x -> "title" -> t
CREATE Page(x)
LINK Page(x) -> "title" -> t, Page(x) -> "self" -> Page(x)
COLLECT Roots(Page(x))
OUTPUT Site`
	builder := func() *Builder {
		b := NewBuilder("failed")
		if err := b.AddSourceFunc("bib", "datadef", func() (string, error) { return content, nil }); err != nil {
			t.Fatal(err)
		}
		if err := b.AddQuery(query); err != nil {
			t.Fatal(err)
		}
		if err := b.AddTemplate("Page", `<SFMT title>`); err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := builder()
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	content = strings.Replace(content, `"Alpha"`, `"Alpha v2"`, 1)
	if err := b.AddTemplate("Page", `<SFMT self EMBED>`); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Rebuild(prev); err == nil {
		t.Fatal("a self-embedding template must fail the rebuild")
	}
	if err := b.AddTemplate("Page", `<SFMT title>`); err != nil {
		t.Fatal(err)
	}
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	want, err := builder().Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Site.Pages) != len(want.Site.Pages) {
		t.Fatalf("rebuild has %d pages, scratch has %d", len(res.Site.Pages), len(want.Site.Pages))
	}
	for path, wp := range want.Site.Pages {
		if gp := res.Site.Pages[path]; gp == nil || gp.HTML != wp.HTML || gp.ETag != wp.ETag {
			t.Errorf("%s: rebuild serves %q, scratch build has %q (mode %s)",
				path, gp.HTML, wp.HTML, res.Incremental.Mode)
		}
	}
}

// TestRebuildAfterFailedRebuildNamesCause: the rebuild after a failed
// one has no delta that reaches from the last good result — through
// the mediator the failed step committed its refresh, under
// SetDataGraph it drained the change journal. It must render in full,
// reuse no page, serve the edit, and name that cause in its summary
// rather than claim there was no previous site.
func TestRebuildAfterFailedRebuildNamesCause(t *testing.T) {
	const content = `
collection Publications { }
object pub1 in Publications { title "Alpha" }
object pub2 in Publications { title "Beta" }
`
	const query = `INPUT BIB
WHERE Publications(x), x -> "title" -> t
CREATE Page(x)
LINK Page(x) -> "title" -> t, Page(x) -> "self" -> Page(x)
COLLECT Roots(Page(x))
OUTPUT Site`
	edited := strings.Replace(content, `"Alpha"`, `"Alpha v2"`, 1)
	configure := func(b *Builder) {
		if err := b.AddQuery(query); err != nil {
			t.Fatal(err)
		}
		if err := b.AddTemplate("Page", `<SFMT title>`); err != nil {
			t.Fatal(err)
		}
	}
	parse := func(text string) *graph.Graph {
		res, err := datadef.Parse("BIB", text)
		if err != nil {
			t.Fatal(err)
		}
		return res.Graph
	}
	// failThenRebuild fails one rebuild on a self-embedding template,
	// restores the template and rebuilds prev again.
	failThenRebuild := func(t *testing.T, b *Builder, prev *Result) *Result {
		t.Helper()
		if err := b.AddTemplate("Page", `<SFMT self EMBED>`); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Rebuild(prev); err == nil {
			t.Fatal("a self-embedding template must fail the rebuild")
		}
		if err := b.AddTemplate("Page", `<SFMT title>`); err != nil {
			t.Fatal(err)
		}
		res, err := b.Rebuild(prev)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	check := func(t *testing.T, res *Result) {
		t.Helper()
		info := res.Incremental
		if info == nil || info.Mode != "full" {
			t.Fatalf("incremental info = %+v, want full", info)
		}
		if info.Site.Reused != 0 {
			t.Error("a full rebuild must not claim reused pages")
		}
		if got, want := info.Summary(), "rebuild: full (no delta baseline)"; got != want {
			t.Errorf("Summary() = %q, want %q", got, want)
		}
		scratch := NewBuilder("scratch")
		scratch.SetDataGraph(parse(edited))
		configure(scratch)
		want, err := scratch.Build()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Site.Pages) != len(want.Site.Pages) {
			t.Fatalf("rebuild has %d pages, scratch has %d", len(res.Site.Pages), len(want.Site.Pages))
		}
		for path, wp := range want.Site.Pages {
			if gp := res.Site.Pages[path]; gp == nil || gp.HTML != wp.HTML || gp.ETag != wp.ETag {
				t.Errorf("%s: rebuild serves %v, scratch build has %q", path, gp, wp.HTML)
			}
		}
	}

	t.Run("mediator", func(t *testing.T) {
		text := content
		b := NewBuilder("failed")
		if err := b.AddSourceFunc("bib", "datadef", func() (string, error) { return text, nil }); err != nil {
			t.Fatal(err)
		}
		configure(b)
		prev, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		text = edited
		check(t, failThenRebuild(t, b, prev))
	})
	t.Run("data graph", func(t *testing.T) {
		data := parse(content)
		b := NewBuilder("failed")
		b.SetDataGraph(data)
		configure(b)
		prev, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		retitle(t, data, "pub1", "Alpha v2")
		check(t, failThenRebuild(t, b, prev))
	})
}

// TestStatsSizesMatchGraphStats: the O(1) node and edge counts a build
// and a rebuild report equal what the graphs' Stats census counts.
func TestStatsSizesMatchGraphStats(t *testing.T) {
	content := workload.BibliographyBibTeX(12, 5)
	spec := workload.BibliographySpec()
	b := NewBuilder("sizes")
	if err := b.AddSourceFunc("refs.bib", "bibtex", func() (string, error) { return content, nil }); err != nil {
		t.Fatal(err)
	}
	if err := b.AddQuery(spec.Query); err != nil {
		t.Fatal(err)
	}
	b.AddTemplates(spec.Templates)
	b.SetEmbedOnly("PaperPresentation")
	b.SetIndex(spec.Index)
	check := func(what string, res *Result) {
		t.Helper()
		ds, ss := res.DataGraph.Stats(), res.SiteGraph.Stats()
		st := res.Stats
		if st.DataNodes != ds.Nodes || st.DataEdges != ds.Edges || st.SiteNodes != ss.Nodes || st.SiteEdges != ss.Edges {
			t.Errorf("%s: stats data %d/%d site %d/%d, graphs say data %d/%d site %d/%d", what,
				st.DataNodes, st.DataEdges, st.SiteNodes, st.SiteEdges, ds.Nodes, ds.Edges, ss.Nodes, ss.Edges)
		}
	}
	res, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	check("build", res)
	med := res.Trace.Root().Children()[0]
	attrs := map[string]any{}
	for _, a := range med.Attrs() {
		attrs[a.Key] = a.Value
	}
	if ds := res.DataGraph.Stats(); med.Name != "mediation" || attrs["nodes"] != ds.Nodes || attrs["edges"] != ds.Edges {
		t.Errorf("%s span attrs %v, data graph has %d nodes, %d edges", med.Name, attrs, ds.Nodes, ds.Edges)
	}
	noop, err := b.Rebuild(res)
	if err != nil {
		t.Fatal(err)
	}
	check("noop rebuild", noop)
	content = strings.Replace(content, "title = {", "title = {Revised ", 1)
	next, err := b.Rebuild(noop)
	if err != nil {
		t.Fatal(err)
	}
	if next.Incremental.Mode == "noop" {
		t.Fatal("edit rebuilt as noop")
	}
	check("selective rebuild", next)
}

// TestDebugEvaluationKeepsDeltaBaseline: explaining, or taking the
// provenance of, a result that a refresh has since replaced must not
// put that result's data graph back under the warehouse name, where the
// next Rebuild would find its delta does not start at the served data
// and render in full. The optimizer indexes the graph a debug
// evaluation runs over, which is how it could.
func TestDebugEvaluationKeepsDeltaBaseline(t *testing.T) {
	for _, debug := range []string{"explain", "provenance"} {
		t.Run(debug, func(t *testing.T) {
			content := workload.BibliographyBibTeX(8, 3)
			spec := workload.BibliographySpec()
			b := NewBuilder("med")
			if err := b.AddSourceFunc("refs.bib", "bibtex", func() (string, error) { return content, nil }); err != nil {
				t.Fatal(err)
			}
			if err := b.AddQuery(spec.Query); err != nil {
				t.Fatal(err)
			}
			b.AddTemplates(spec.Templates)
			b.SetEmbedOnly("PaperPresentation")
			b.SetIndex(spec.Index)
			b.EnableOptimizer()
			r1, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			content = strings.Replace(content, "title = {", "title = {Revised ", 1)
			r2, err := b.Rebuild(r1)
			if err != nil {
				t.Fatal(err)
			}
			if debug == "explain" {
				_, err = b.ExplainData(r1.DataGraph)
			} else {
				_, err = b.Provenance(r1)
			}
			if err != nil {
				t.Fatal(err)
			}
			content = strings.Replace(content, "title = {", "title = {Twice ", 1)
			r3, err := b.Rebuild(r2)
			if err != nil {
				t.Fatal(err)
			}
			if info := r3.Incremental; info.Mode != "selective" || info.Site.Reused == 0 {
				t.Fatalf("rebuild after a debug %s of a replaced result: %s, want selective with reuse", debug, info.Summary())
			}
		})
	}
}

// TestRebuildVerifySpanRecordsViolations: a rebuild that introduces a
// constraint violation records it on its own verify span, as a build
// does: the violations attribute and one violation event per failure.
func TestRebuildVerifySpanRecordsViolations(t *testing.T) {
	b := bibBuilder(t, 6)
	b.AddConstraint(schema.MustLink{From: "RootPage", Label: "YearPage", To: "YearPage"})
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Violations) != 0 {
		t.Fatalf("initial build violates: %v", prev.Violations)
	}
	// With no year left on any publication, the root page links to no
	// year page.
	data := prev.DataGraph
	for _, pub := range data.Collection("Publications") {
		for {
			v, ok := data.First(pub.OID(), "year")
			if !ok {
				break
			}
			data.RemoveEdge(pub.OID(), "year", v)
		}
	}
	res, err := b.Rebuild(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("%s introduced no violation", res.Incremental.Summary())
	}
	var verify *telemetry.Span
	for _, sp := range res.Trace.Root().Children() {
		if sp.Name == "verify" {
			verify = sp
		}
	}
	if verify == nil {
		t.Fatal("rebuild trace has no verify span")
	}
	var attr any
	for _, a := range verify.Attrs() {
		if a.Key == "violations" {
			attr = a.Value
		}
	}
	events := 0
	for _, ev := range verify.Events() {
		if ev.Name == "violation" {
			events++
		}
	}
	if attr != len(res.Violations) || events != len(res.Violations) {
		t.Errorf("%s: verify span has violations=%v and %d violation events, want %d of each",
			res.Incremental.Mode, attr, events, len(res.Violations))
	}
}
