package core

import (
	"strings"
	"testing"

	"strudel/internal/graph"
	"strudel/internal/telemetry"
	"strudel/internal/workload"
)

// retitle swaps one publication's title in place and returns the
// corresponding conservative delta.
func retitle(t *testing.T, g *graph.Graph, name, newTitle string) *graph.Delta {
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
	return &graph.Delta{ChangedObjects: []string{name}, TouchedLabels: []string{"title"}}
}

// TestRebuildWithDeltaSelective is the regression guard of the delta
// pipeline: touching one object re-renders only pages the schema
// analysis marks affected — verified through the telemetry counters —
// and the result is byte-identical to a from-scratch build.
func TestRebuildWithDeltaSelective(t *testing.T) {
	const n = 30
	reg := telemetry.NewRegistry()
	b := bibBuilder(t, n)
	b.SetTelemetry(reg)
	// Pin the query-re-evaluation path: with differential maintenance on
	// (the default, covered by TestRebuildWithDeltaDifferential and the
	// top-level suite) the journal fast path would take over.
	b.SetDifferential(false)
	data := workload.Bibliography(n, 42)
	b.SetDataGraph(data)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	delta := retitle(t, data, "pub7", "A Fresh Title")
	res, err := b.RebuildWithDelta(prev, delta)
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

// TestRebuildWithDeltaDifferential: with a data graph set and a prior
// full build, the default rebuild path is the differential one — the
// journaled mutation propagates through the materialized bindings, no
// query re-evaluation, and the pages still match a scratch build.
func TestRebuildWithDeltaDifferential(t *testing.T) {
	const n = 30
	b := bibBuilder(t, n)
	data := workload.Bibliography(n, 42)
	b.SetDataGraph(data)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	delta := retitle(t, data, "pub7", "A Fresh Title")
	res, err := b.RebuildWithDelta(prev, delta)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Incremental
	if info == nil || info.Mode != "differential" {
		t.Fatalf("incremental info = %+v, want differential mode", info)
	}
	if info.Eval == nil || info.Eval.RowsRetained == 0 {
		t.Fatalf("differential rebuild retained no tuples: %+v", info.Eval)
	}
	if info.Site.Reused == 0 {
		t.Fatal("a one-object touch must reuse pages")
	}
	fresh := bibBuilder(t, n)
	freshData := workload.Bibliography(n, 42)
	retitle(t, freshData, "pub7", "A Fresh Title")
	fresh.SetDataGraph(freshData)
	want, err := fresh.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Site.Pages) != len(want.Site.Pages) {
		t.Fatalf("differential site has %d pages, full build has %d", len(res.Site.Pages), len(want.Site.Pages))
	}
	for path, wp := range want.Site.Pages {
		gp := res.Site.Pages[path]
		if gp == nil || gp.HTML != wp.HTML {
			t.Errorf("%s differs from full rebuild", path)
		}
	}
}

func TestRebuildWithDeltaNoop(t *testing.T) {
	b := bibBuilder(t, 10)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.RebuildWithDelta(prev, &graph.Delta{})
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

func TestRebuildWithNilDeltaIsFull(t *testing.T) {
	b := bibBuilder(t, 10)
	prev, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.RebuildWithDelta(prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental == nil || res.Incremental.Mode != "full" {
		t.Fatalf("incremental info = %+v, want full", res.Incremental)
	}
	if res.Incremental.Site.Reused != 0 {
		t.Error("a full rebuild must not claim reused pages")
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
		"Dynamic page-cache events (hit, miss, evict).", "event", "adopt").Value()
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
