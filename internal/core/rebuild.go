// Incremental rebuilds (paper Sec. 2.4, Fig. 5): the site is a view
// kept current over changing data. A data graph is never edited once a
// build has read it, so the previous result's data graph and the
// current one both exist, and Rebuild keys on the delta between them,
// whichever source they came from. One pipeline runs it: the
// site-definition queries re-run in full, the new site graph is diffed
// against the previous one by name, and only the pages in the
// reverse-reachability cone of the touched site objects re-render; the
// rest are adopted from the previous site by name. A change the schema
// cannot see is a noop. A full Build is the pipeline's first step: the
// same body with no previous result.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"strudel/internal/graph"
	"strudel/internal/incremental"
	"strudel/internal/optimizer"
	"strudel/internal/schema"
	"strudel/internal/sitegen"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
)

// RebuildInfo describes how an incremental rebuild proceeded.
type RebuildInfo struct {
	// Mode is "noop" (nothing the site schema can see changed, the
	// previous result is reused), "selective" (queries re-evaluated in
	// full, only the touched cone re-rendered) or "full" (every page
	// re-rendered; Site.Reason names the cause).
	Mode string
	// Data is the data-graph delta the rebuild keyed on, from the
	// previous result's data graph to the new one.
	Data *graph.Delta
	// Impact is the delta mapped through the site schema.
	Impact *schema.Impact
	// Site reports page-level reuse (nil in noop mode).
	Site *sitegen.DeltaStats
	// Invalidated lists the paths whose ETag, and so whose bytes,
	// changed relative to the previous build, sorted (new pages
	// included, vanished pages not) — exactly the URLs HTTP caches
	// must refetch after the swap. Empty in noop mode: every tag
	// carried over.
	Invalidated []string
}

// invalidatedPaths diffs two builds by ETag: the pages a serving edge
// (or any downstream HTTP cache keyed on our strong tags) can no
// longer answer 304 for.
func invalidatedPaths(prev, next *sitegen.Site) []string {
	var out []string
	for path, p := range next.Pages {
		if pp, ok := prev.Pages[path]; !ok || pp.ETag != p.ETag {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// Summary renders a one-line digest for logs.
func (ri *RebuildInfo) Summary() string {
	if ri == nil {
		return "rebuild: full (no delta info)"
	}
	switch ri.Mode {
	case "noop":
		return "rebuild: noop (data unchanged)"
	case "full":
		return "rebuild: full (" + ri.Site.Reason + ")"
	default:
		s := fmt.Sprintf("rebuild: selective, %d rendered, %d reused", ri.Site.Rendered, ri.Site.Reused)
		if n := len(ri.Site.PrunedPaths); n > 0 {
			s += fmt.Sprintf(", %d pruned", n)
		}
		if n := len(ri.Invalidated); n > 0 {
			s += fmt.Sprintf(", %d invalidated", n)
		}
		return s
	}
}

// deltaPages returns the telemetry counter for page outcomes during
// incremental rebuilds, or nil when telemetry is detached.
func (b *Builder) deltaPages(action string) *telemetry.Counter {
	if b.telem == nil {
		return nil
	}
	return b.telem.Counter("strudel_delta_pages_total",
		"Pages processed by incremental rebuilds, by outcome (rendered, reused, pruned).",
		"action", action)
}

func (b *Builder) countRebuild(mode string) {
	if b.telem != nil {
		b.telem.Counter("strudel_delta_rebuilds_total",
			"Incremental rebuilds, by mode (noop, selective, full).",
			"mode", mode).Inc()
	}
}

func addCount(c *telemetry.Counter, n int) {
	if c != nil && n > 0 {
		c.Add(n)
	}
}

// Rebuild brings prev up to date with the data and rebuilds the site
// incrementally: only pages the data change can reach re-render. The
// change is the delta from prev's data graph to the current one
// (dataChange): through the mediator Rebuild refreshes the sources
// first, and under SetDataGraph the current graph is the one last set.
// A nil prev, or one built before the last AddQuery, runs Build. The
// result is byte-identical to a from-scratch Build over the same data.
func (b *Builder) Rebuild(prev *Result) (*Result, error) {
	if prev == nil || prev.Site == nil || prev.SiteGraph == nil || prev.queries < len(b.queries) {
		return b.Build()
	}
	// The data change runs before rebuild opens the rebuild trace, so it
	// is timed here rather than as a span of it.
	t0, a0 := time.Now(), telemetry.AllocBytes()
	data, delta, report, err := b.dataChange(prev.DataGraph)
	if err != nil {
		return nil, err
	}
	medTime, medAlloc := time.Since(t0), telemetry.AllocBytes()-a0
	res, err := b.rebuild(&Result{Trace: telemetry.NewTrace("rebuild " + b.name), DataGraph: data, Refresh: report}, prev, delta)
	if res != nil {
		res.Stats.MediationTime, res.Stats.MediationAlloc = medTime, medAlloc
	}
	return res, err
}

// rebuild is the one build pipeline. res holds the opened trace, the
// data graph and the refresh report; prev is the result to bring up to
// date, or nil for a full build, which renders every page and reports
// no RebuildInfo. delta is the data change since prev. The queries
// re-run in full and the new site graph is diffed against prev's by
// name: the pages in the reverse-reachability cone of the touched site
// objects re-render, and the rest are adopted.
func (b *Builder) rebuild(res, prev *Result, delta *graph.Delta) (*Result, error) {
	tr, data := res.Trace, res.DataGraph
	pl := b.buildPool()
	a0 := telemetry.AllocBytes()
	defer func() {
		tr.Finish()
		res.Stats.TotalTime = tr.Duration()
		res.Stats.TotalAlloc = res.Stats.MediationAlloc + telemetry.AllocBytes() - a0
		res.BuiltAt = time.Now()
	}()
	res.queries = len(b.queries)
	tr.Root().SetAttr("site", b.name)
	tr.Root().SetAttr("workers", pl.Workers())

	// NumNodes/NumEdges, not Stats(): the label census walks every edge,
	// which would put an O(data) scan on the noop path.
	res.Stats.DataNodes, res.Stats.DataEdges = data.NumNodes(), data.NumEdges()
	sch := b.siteSchema()
	res.Schema = sch
	var info *RebuildInfo
	var prevSite *sitegen.Site
	if prev != nil {
		info = &RebuildInfo{Data: delta, Impact: schema.Analyze(sch, delta)}
		res.Incremental, prevSite = info, prev.Site
	}

	// Nothing the schema can see changed: the site graph — a function of
	// the data graph and the queries — is provably the previous one.
	if prev != nil && info.Impact.Empty() {
		info.Mode = "noop"
		res.SiteGraph, res.Site = prev.SiteGraph, prev.Site
		res.Violations, res.DomainWarnings = prev.Violations, prev.DomainWarnings
		res.Stats.SiteNodes, res.Stats.SiteEdges = prev.SiteGraph.NumNodes(), prev.SiteGraph.NumEdges()
		res.Stats.Pages = len(prev.Site.Pages)
		res.Stats.PagesReused = len(prev.Site.Pages)
		addCount(b.deltaPages("reused"), len(prev.Site.Pages))
		b.countRebuild("noop")
		tr.Root().SetAttr("mode", "noop")
		return res, nil
	}

	qsp := tr.Root().Child("query")
	qe, err := b.evalQueries(data, qsp, pl, false, nil)
	if err != nil {
		return nil, err
	}
	site := qe.site
	res.Stats.Bindings = qe.bindings
	qsp.SetAttr("bindings", res.Stats.Bindings)
	qsp.Finish()
	res.Stats.QueryTime = qsp.Duration()
	aQuery := telemetry.AllocBytes()
	res.Stats.QueryAlloc = aQuery - a0
	res.SiteGraph = site

	ver := tr.Root().Child("verify")
	res.Violations = schema.VerifyAll(sch, site, b.constraints)
	for _, q := range b.queries {
		res.DomainWarnings = append(res.DomainWarnings,
			struql.RangeCheckWith(q, data.HasCollection)...)
	}
	ver.SetAttr("violations", len(res.Violations))
	for _, v := range res.Violations {
		ver.AddEvent("violation", "error", v.Error())
	}
	ver.Finish()
	res.Stats.VerifyTime = ver.Duration()
	aVerify := telemetry.AllocBytes()
	res.Stats.VerifyAlloc = aVerify - aQuery

	var cone map[graph.OID]struct{}
	if prev != nil {
		// Diff compares edges and memberships by name, so an object
		// outside the cone of the added and changed keys kept its name,
		// template and path: the cone contract holds for a re-evaluated
		// site graph. Every key Diff reports for site resolves in it.
		d := graph.Diff(prev.SiteGraph, site)
		var touched []graph.OID
		for _, key := range append(d.AddedObjects, d.ChangedObjects...) {
			if oid, ok := site.ResolveKey(key); ok {
				touched = append(touched, oid)
			}
		}
		cone = site.ReverseReachable(touched)
	}

	gsp := tr.Root().Child("generate")
	gen := sitegen.New(site, sitegen.Config{
		Templates: b.templates,
		EmbedOnly: b.embedOnly,
		Index:     b.index,
		Pool:      pl,
	})
	htmlSite, dstats, err := gen.Regenerate(context.Background(), prevSite, cone)
	if err == nil {
		gsp.SetAttr("rendered", dstats.Rendered)
		gsp.SetAttr("reused", dstats.Reused)
	}
	gsp.Finish()
	res.Stats.GenerateTime = gsp.Duration()
	res.Stats.GenerateAlloc = telemetry.AllocBytes() - aVerify
	if err != nil {
		return nil, err
	}
	res.Site = htmlSite
	if info != nil {
		info.Site = dstats
		info.Invalidated = invalidatedPaths(prev.Site, htmlSite)
		info.Mode = "selective"
		if dstats.Full {
			info.Mode = "full"
		}
		tr.Root().SetAttr("mode", info.Mode)
		b.countRebuild(info.Mode)
		addCount(b.deltaPages("rendered"), dstats.Rendered)
		addCount(b.deltaPages("reused"), dstats.Reused)
		addCount(b.deltaPages("pruned"), len(dstats.PrunedPaths))
	}

	res.Stats.SiteNodes, res.Stats.SiteEdges = site.NumNodes(), site.NumEdges()
	res.Stats.Pages = len(htmlSite.Pages)
	res.Stats.PagesReused = dstats.Reused
	res.Stats.PagesPruned = len(dstats.PrunedPaths)
	return res, nil
}

// RebuildDynamic returns a renderer for click-time evaluation over the
// current data graph (dataChange), carrying over the previous
// renderer's page cache for the classes the data delta cannot affect.
// When the data graph is the one prev renders from, prev itself is
// returned. A nil prev builds a renderer with a cold cache.
func (b *Builder) RebuildDynamic(prev *incremental.Renderer) (*incremental.Renderer, error) {
	if len(b.queries) != 1 {
		return nil, fmt.Errorf("core: dynamic evaluation needs exactly one site-definition query, have %d", len(b.queries))
	}
	if b.rootColl == "" {
		return nil, fmt.Errorf("core: dynamic evaluation needs SetRootCollection")
	}
	var prevData *graph.Graph
	if prev != nil {
		prevData = prev.Dec.Input()
	}
	data, delta, _, err := b.dataChange(prevData)
	if err != nil {
		return nil, err
	}
	if prev != nil && data == prevData {
		// The data is re-validated as unchanged: the content is current
		// as of now, even though nothing was recomputed.
		prev.BuiltAt = time.Now()
		return prev, nil
	}
	dec := incremental.Decompose(b.queries[0], data, b.Registry())
	dec.UsePool(b.buildPool())
	if b.optimize {
		dec.UsePlanner(optimizer.Hook(b.optimizerContext(data)))
	}
	r := &incremental.Renderer{Dec: dec, Templates: b.templates, EmbedOnly: b.embedOnly}
	adopted := 0
	if prev != nil {
		r.URLFor, r.MaxDepth = prev.URLFor, prev.MaxDepth
		adopted = dec.AdoptCache(prev.Dec, schema.Analyze(dec.Schema(), delta))
	}
	r.BuiltAt = time.Now()
	if b.telem != nil {
		r.Instrument(b.telem)
		if prev != nil {
			b.telem.Counter("strudel_dynamic_cache_events_total",
				"Dynamic page-cache events (hit, miss, adopt).", "event", "adopt").Add(adopted)
		}
	}
	return r, nil
}
