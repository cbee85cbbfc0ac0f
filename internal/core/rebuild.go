// Incremental rebuilds: instead of re-rendering every page on each
// data refresh, the builder diffs the data graph, maps the delta
// through the site schema, re-evaluates the site-definition queries,
// and re-renders only the pages whose reverse-reachability cone in the
// new site graph intersects the changed objects. Query evaluation is
// always re-run in full (StruQL evaluation is cheap relative to
// rendering and re-evaluating is trivially conservative); page
// rendering — the expensive phase — is selective.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"strudel/internal/graph"
	"strudel/internal/incremental"
	"strudel/internal/mediator"
	"strudel/internal/optimizer"
	"strudel/internal/schema"
	"strudel/internal/sitegen"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
)

// RebuildInfo describes how an incremental rebuild proceeded.
type RebuildInfo struct {
	// Mode is "noop" (nothing changed, previous result reused), "full"
	// (no usable baseline or delta — everything re-rendered),
	// "selective" (queries re-evaluated in full, only affected pages
	// re-rendered), or "differential" (the journaled mutations were
	// propagated through materialized binding relations; the queries
	// were not re-evaluated at all).
	Mode string
	// Data is the data-graph delta the rebuild keyed on (nil when
	// unknown, forcing a full rebuild).
	Data *graph.Delta
	// Impact is the delta mapped through the site schema.
	Impact *schema.Impact
	// Site reports page-level reuse (nil in noop mode).
	Site *sitegen.DeltaStats
	// Eval reports what differential evaluation did (differential mode
	// only): tuples retained vs recomputed, blocks maintained vs
	// re-bound, output lists repaired.
	Eval *struql.MatStats
	// Invalidated lists the paths whose ETag changed relative to the
	// previous build, sorted (new pages included, vanished pages not) —
	// exactly the URLs HTTP caches must refetch after the swap. Empty
	// in noop mode: every tag carried over.
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
	case "differential":
		s := "rebuild: differential"
		if ri.Eval != nil {
			s += fmt.Sprintf(", %d tuples retained, %d recomputed, %d added, %d removed",
				ri.Eval.RowsRetained, ri.Eval.RowsRechecked, ri.Eval.RowsAdded, ri.Eval.RowsRemoved)
		}
		if ri.Site != nil {
			s += fmt.Sprintf(", %d rendered, %d reused", ri.Site.Rendered, ri.Site.Reused)
		}
		return s
	case "full":
		reason := "no baseline"
		if ri.Site != nil && ri.Site.Reason != "" {
			reason = ri.Site.Reason
		}
		return "rebuild: full (" + reason + ")"
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
			"Incremental rebuilds, by mode (noop, selective, differential, full).",
			"mode", mode).Inc()
	}
}

func addCount(c *telemetry.Counter, n int) {
	if c != nil && n > 0 {
		c.Add(n)
	}
}

// Rebuild refreshes the mediated data graph and rebuilds the site
// incrementally against a previous result: the mediator reports the
// warehouse-level delta, and only pages the delta can reach re-render.
// A nil prev, a first refresh (no delta baseline), or an explicit
// SetDataGraph (whose mutations the builder cannot observe — use
// RebuildWithDelta) all degrade to a full build. So does a prev built
// from another warehouse than the one this refresh diffs against — a
// rebuild failed after an earlier refresh committed — since that delta
// would not reach from prev's data. The returned result is
// byte-identical to a from-scratch Build over the same data.
func (b *Builder) Rebuild(prev *Result) (*Result, error) {
	if prev == nil || prev.Site == nil || prev.SiteGraph == nil {
		return b.Build()
	}
	if b.dataGraph != nil {
		// In-place mutations are invisible here; only the caller knows
		// what changed.
		return b.Build()
	}
	// Mediation runs before rebuildFrom opens the rebuild trace, so it
	// is timed here rather than as a span of it.
	t0, a0 := time.Now(), telemetry.AllocBytes()
	base, _ := b.med.Warehouse()
	data, report, err := b.med.RefreshWithReport()
	if err != nil {
		return nil, err
	}
	medTime, medAlloc := time.Since(t0), telemetry.AllocBytes()-a0
	delta := report.Warehouse
	if base != prev.DataGraph {
		delta = nil
	}
	res, err := b.rebuildFrom(prev, data, report, delta)
	if res != nil {
		res.Stats.MediationTime, res.Stats.MediationAlloc = medTime, medAlloc
	}
	return res, err
}

// RebuildWithDelta rebuilds incrementally from an explicitly supplied
// data graph delta — the caller mutated the graph set via SetDataGraph
// and knows (or computed via graph.Diff) what changed. The delta must
// over-approximate the actual change; a nil delta forces a full build.
//
// With differential evaluation primed (SetDataGraph + a prior full
// Build, SetDifferential on), the supplied delta is not even needed:
// the builder drains the data graph's mutation journal and propagates
// it through the materialized binding relations, updating the previous
// site graph in place and re-rendering only the pages whose
// reverse-reachability cone the propagation touched. Whenever the
// journal or the maintained state cannot be trusted, the call falls
// back to the query-re-evaluation path above. Either way the result is
// byte-identical to a from-scratch Build.
func (b *Builder) RebuildWithDelta(prev *Result, delta *graph.Delta) (*Result, error) {
	if prev == nil || prev.Site == nil || prev.SiteGraph == nil {
		return b.Build()
	}
	data, err := b.buildDataGraph()
	if err != nil {
		return nil, err
	}
	if delta != nil {
		// A nil delta is an explicit request for a full rebuild — honor
		// it rather than trusting the journal.
		if res, err := b.tryDifferential(prev, data); res != nil || err != nil {
			if err == errDiffAbort {
				// The apply died partway: the previous site graph may hold a
				// partial mutation, so regenerate with no page reuse at all.
				return b.rebuildFrom(prev, data, nil, nil)
			}
			return res, err
		}
	}
	var report *mediator.RefreshReport
	if b.dataGraph == nil {
		report = b.med.LastReport()
	}
	return b.rebuildFrom(prev, data, report, delta)
}

// errDiffAbort signals that a differential apply failed after possibly
// mutating the previous site graph: the caller must do a full rebuild
// without reusing any previously rendered page.
var errDiffAbort = errors.New("core: differential apply aborted")

// tryDifferential attempts the differential fast path against prev.
// It returns (nil, nil) when ineligible — the caller falls back to
// query re-evaluation with the previous site intact — and errDiffAbort
// when the maintained site graph can no longer back page reuse.
func (b *Builder) tryDifferential(prev *Result, data *graph.Graph) (*Result, error) {
	if !b.canDifferential() || !b.mat.Valid() {
		return nil, nil
	}
	if prev.SiteGraph != b.mat.Output() {
		return nil, nil // prev is not the site the materialization maintains
	}
	if prev.Site.Collisions != 0 {
		// Collision suffixes depend on OID enumeration order, which
		// in-place maintenance does not reproduce.
		return nil, nil
	}
	ops, ok := b.matLog.Take()
	if !ok {
		b.mat.Invalidate("change log overflowed")
		b.mat = nil
		return nil, nil
	}

	tr := telemetry.NewTrace("rebuild " + b.name)
	res := &Result{Trace: tr, DataGraph: data}
	pl := b.buildPool()
	a0 := telemetry.AllocBytes()
	defer func() {
		tr.Finish()
		res.Stats.TotalTime = tr.Duration()
		res.Stats.TotalAlloc = telemetry.AllocBytes() - a0
		res.BuiltAt = time.Now()
	}()
	tr.Root().SetAttr("site", b.name)
	tr.Root().SetAttr("workers", pl.Workers())

	// NumNodes/NumEdges, not Stats(): the label census walks every edge,
	// which would put an O(site) scan on the single-digit-ms fast path.
	res.Stats.DataNodes, res.Stats.DataEdges = data.NumNodes(), data.NumEdges()
	sch := prev.Schema
	if sch == nil {
		sch = b.siteSchema()
	}
	res.Schema = sch

	if len(ops) == 0 {
		info := &RebuildInfo{Mode: "noop"}
		res.Incremental = info
		res.SiteGraph = prev.SiteGraph
		res.Site = prev.Site
		res.Provenance = prev.Provenance
		res.Violations = prev.Violations
		res.DomainWarnings = prev.DomainWarnings
		res.Stats.SiteNodes, res.Stats.SiteEdges = prev.SiteGraph.NumNodes(), prev.SiteGraph.NumEdges()
		res.Stats.Pages = len(prev.Site.Pages)
		res.Stats.PagesReused = len(prev.Site.Pages)
		addCount(b.deltaPages("reused"), len(prev.Site.Pages))
		b.countRebuild("noop")
		tr.Root().SetAttr("mode", "noop")
		return res, nil
	}

	qsp := tr.Root().Child("query")
	st, err := b.mat.Apply(ops)
	qsp.Finish()
	res.Stats.QueryTime = qsp.Duration()
	aQuery := telemetry.AllocBytes()
	res.Stats.QueryAlloc = aQuery - a0
	if err != nil {
		b.mat = nil
		return nil, errDiffAbort
	}
	b.countDiff(st)
	site := prev.SiteGraph // maintained in place
	res.SiteGraph = site
	res.Stats.Bindings = st.RowsRetained + st.RowsAdded
	info := &RebuildInfo{Mode: "differential", Eval: st}
	res.Incremental = info

	ver := tr.Root().Child("verify")
	res.Violations = schema.VerifyAll(sch, site, b.constraints)
	for _, q := range b.queries {
		res.DomainWarnings = append(res.DomainWarnings,
			struql.RangeCheckWith(q, data.HasCollection)...)
	}
	ver.Finish()
	res.Stats.VerifyTime = ver.Duration()
	aVerify := telemetry.AllocBytes()
	res.Stats.VerifyAlloc = aVerify - aQuery

	cone := site.ReverseReachable(st.Touched)

	gsp := tr.Root().Child("generate")
	gen := sitegen.New(site, sitegen.Config{
		Templates:    b.templates,
		EmbedOnly:    b.embedOnly,
		Index:        b.index,
		FileResolver: b.resolver,
		Pool:         pl,
	})
	htmlSite, dstats, err := gen.RegenerateConeContext(context.Background(), prev.Site, cone, !st.Renumbered)
	if err == nil && htmlSite == nil {
		// Name-keyed wholesale reuse unavailable (unnamed page or path
		// shift): take the conservative predicate path, which re-derives
		// the full assignment and falls back to a full render as needed.
		affected := func(oid graph.OID) bool {
			_, ok := cone[oid]
			return ok
		}
		htmlSite, dstats, err = gen.RegenerateDeltaContext(context.Background(), prev.Site, affected)
	}
	gsp.Finish()
	res.Stats.GenerateTime = gsp.Duration()
	res.Stats.GenerateAlloc = telemetry.AllocBytes() - aVerify
	if err != nil {
		return nil, err
	}
	if htmlSite.Collisions != 0 {
		// A new collision suffix may not match what a from-scratch build
		// would assign; hand the whole rebuild back to the full path.
		b.mat.Invalidate("path collision in maintained site")
		b.mat = nil
		return nil, errDiffAbort
	}
	res.Site = htmlSite
	info.Site = dstats
	info.Invalidated = invalidatedPaths(prev.Site, htmlSite)
	tr.Root().SetAttr("mode", info.Mode)
	gsp.SetAttr("rendered", dstats.Rendered)
	gsp.SetAttr("reused", dstats.Reused)
	b.countRebuild("differential")
	addCount(b.deltaPages("rendered"), dstats.Rendered)
	addCount(b.deltaPages("reused"), dstats.Reused)
	addCount(b.deltaPages("pruned"), len(dstats.PrunedPaths))

	res.Stats.SiteNodes, res.Stats.SiteEdges = site.NumNodes(), site.NumEdges()
	res.Stats.Pages = len(htmlSite.Pages)
	res.Stats.PagesReused = dstats.Reused
	res.Stats.PagesPruned = len(dstats.PrunedPaths)
	return res, nil
}

// countDiff feeds differential-apply telemetry.
func (b *Builder) countDiff(st *struql.MatStats) {
	if b.telem == nil {
		return
	}
	tuples := func(kind string, n int) {
		if n > 0 {
			b.telem.Counter("strudel_diff_tuples_total",
				"Binding tuples processed by differential evaluation, by outcome.",
				"kind", kind).Add(n)
		}
	}
	tuples("retained", st.RowsRetained)
	tuples("recomputed", st.RowsRechecked)
	tuples("added", st.RowsAdded)
	tuples("removed", st.RowsRemoved)
	blocks := func(mode string, n int) {
		if n > 0 {
			b.telem.Counter("strudel_diff_blocks_total",
				"Query blocks touched by differential evaluation, by maintenance mode.",
				"mode", mode).Add(n)
		}
	}
	blocks("differential", st.BlocksDifferential)
	blocks("fallback", st.BlocksFallback)
	blocks("rebound", st.BlocksRebound)
}

// rebuildFrom is the shared incremental pipeline: analyze the delta,
// short-circuit when nothing can change, else re-evaluate the queries
// and regenerate selectively.
func (b *Builder) rebuildFrom(prev *Result, data *graph.Graph, report *mediator.RefreshReport, delta *graph.Delta) (*Result, error) {
	tr := telemetry.NewTrace("rebuild " + b.name)
	res := &Result{Trace: tr, DataGraph: data, Refresh: report}
	pl := b.buildPool()
	a0 := telemetry.AllocBytes()
	defer func() {
		tr.Finish()
		res.Stats.TotalTime = tr.Duration()
		res.Stats.TotalAlloc = telemetry.AllocBytes() - a0
		res.BuiltAt = time.Now()
	}()

	tr.Root().SetAttr("site", b.name)
	tr.Root().SetAttr("workers", pl.Workers())

	sch := b.siteSchema()
	impact := schema.Analyze(sch, delta)
	info := &RebuildInfo{Data: delta, Impact: impact}
	res.Incremental = info

	res.Stats.DataNodes, res.Stats.DataEdges = data.NumNodes(), data.NumEdges()

	// Nothing the schema can see changed: the site graph — a function
	// of the data graph and the queries — is provably identical, so the
	// previous site is the new site.
	if delta != nil && impact.Empty() {
		info.Mode = "noop"
		res.SiteGraph = prev.SiteGraph
		res.Schema = prev.Schema
		res.Site = prev.Site
		res.Provenance = prev.Provenance
		res.Violations = prev.Violations
		res.DomainWarnings = prev.DomainWarnings
		res.Stats.SiteNodes, res.Stats.SiteEdges = prev.SiteGraph.NumNodes(), prev.SiteGraph.NumEdges()
		res.Stats.Pages = len(prev.Site.Pages)
		res.Stats.PagesReused = len(prev.Site.Pages)
		addCount(b.deltaPages("reused"), len(prev.Site.Pages))
		b.countRebuild("noop")
		tr.Root().SetAttr("mode", "noop")
		return res, nil
	}

	// Re-evaluate the site-definition queries in full — conservative by
	// construction — then diff the site graphs to find which pages'
	// dependency cones the change touches.
	qsp := tr.Root().Child("query")
	caps := b.captureSet()
	qe, err := b.evalQueries(data, qsp, pl, false, caps)
	if err == nil {
		qsp.SetAttr("bindings", qe.bindings)
	}
	qsp.Finish()
	res.Stats.QueryTime = qsp.Duration()
	aQuery := telemetry.AllocBytes()
	res.Stats.QueryAlloc = aQuery - a0
	if err != nil {
		return nil, err
	}
	site := qe.site
	res.SiteGraph = site
	res.Stats.Bindings = qe.bindings
	res.Provenance = qe.prov

	ver := tr.Root().Child("verify")
	res.Schema = sch
	res.Violations = schema.VerifyAll(sch, site, b.constraints)
	for _, q := range b.queries {
		res.DomainWarnings = append(res.DomainWarnings,
			struql.RangeCheckWith(q, data.HasCollection)...)
	}
	ver.Finish()
	res.Stats.VerifyTime = ver.Duration()
	aVerify := telemetry.AllocBytes()
	res.Stats.VerifyAlloc = aVerify - aQuery

	var affected func(graph.OID) bool
	if delta != nil {
		siteDelta := graph.Diff(prev.SiteGraph, site)
		var starts []graph.OID
		resolvable := true
		for _, key := range append(append([]string{}, siteDelta.AddedObjects...), siteDelta.ChangedObjects...) {
			oid, ok := site.ResolveKey(key)
			if !ok {
				// A changed object we cannot locate in the new site
				// graph (should not happen for added/changed keys):
				// give up on selectivity rather than risk staleness.
				resolvable = false
				break
			}
			starts = append(starts, oid)
		}
		if resolvable {
			cone := site.ReverseReachable(starts)
			affected = func(oid graph.OID) bool {
				_, ok := cone[oid]
				return ok
			}
		}
	}

	gsp := tr.Root().Child("generate")
	gen := sitegen.New(site, sitegen.Config{
		Templates:    b.templates,
		EmbedOnly:    b.embedOnly,
		Index:        b.index,
		FileResolver: b.resolver,
		Pool:         pl,
	})
	htmlSite, dstats, err := gen.RegenerateDeltaContext(context.Background(), prev.Site, affected)
	gsp.Finish()
	res.Stats.GenerateTime = gsp.Duration()
	res.Stats.GenerateAlloc = telemetry.AllocBytes() - aVerify
	if err != nil {
		return nil, err
	}
	res.Site = htmlSite
	info.Site = dstats
	info.Invalidated = invalidatedPaths(prev.Site, htmlSite)
	if dstats.Full {
		info.Mode = "full"
	} else {
		info.Mode = "selective"
	}
	b.primeDifferential(data, site, caps)
	tr.Root().SetAttr("mode", info.Mode)
	gsp.SetAttr("rendered", dstats.Rendered)
	gsp.SetAttr("reused", dstats.Reused)
	b.countRebuild(info.Mode)
	addCount(b.deltaPages("rendered"), dstats.Rendered)
	addCount(b.deltaPages("reused"), dstats.Reused)
	addCount(b.deltaPages("pruned"), len(dstats.PrunedPaths))

	res.Stats.SiteNodes, res.Stats.SiteEdges = site.NumNodes(), site.NumEdges()
	res.Stats.Pages = len(htmlSite.Pages)
	res.Stats.PagesReused = dstats.Reused
	res.Stats.PagesPruned = len(dstats.PrunedPaths)
	return res, nil
}

// RebuildDynamic refreshes the mediated data graph and returns a
// renderer for click-time evaluation, carrying over the previous
// renderer's page cache for classes the refresh delta cannot affect.
// When the refresh kept the warehouse prev renders from, prev itself
// is returned. A nil prev, no delta baseline, or a delta that does not
// start at prev's data (a rebuild failed after an earlier refresh
// committed) builds a fresh (cold-cache) renderer.
func (b *Builder) RebuildDynamic(prev *incremental.Renderer) (*incremental.Renderer, error) {
	if prev == nil {
		return b.BuildDynamic()
	}
	if b.dataGraph != nil {
		// In-place data mutation: same decomposition, and the mutation
		// journal tells us exactly which cached classes to evict. An
		// overflowed (or absent) journal degrades to dropping everything.
		if b.dynLog != nil {
			if ops, ok := b.dynLog.Take(); ok {
				prev.Dec.InvalidateDelta(graph.OpsDelta(ops))
			} else {
				prev.Dec.InvalidateCache()
			}
		} else {
			prev.Dec.InvalidateDelta(nil)
		}
		prev.BuiltAt = time.Now()
		return prev, nil
	}
	in := prev.Dec.Input()
	base, _ := b.med.Warehouse()
	data, report, err := b.med.RefreshWithReport()
	if err != nil {
		return nil, err
	}
	if data == in {
		// The refresh re-validated the data as unchanged: the content is
		// current as of now, even though nothing was recomputed.
		prev.BuiltAt = time.Now()
		return prev, nil
	}
	delta := report.Warehouse
	if base != in {
		delta = nil
	}
	if len(b.queries) != 1 {
		return nil, fmt.Errorf("core: dynamic evaluation needs exactly one site-definition query, have %d", len(b.queries))
	}
	dec := incremental.Decompose(b.queries[0], data, b.Registry())
	dec.UsePool(b.buildPool())
	if b.optimize {
		dec.UsePlanner(optimizer.Hook(b.optimizerContext(data)))
	}
	adopted := 0
	if delta != nil {
		adopted = dec.AdoptCache(prev.Dec, schema.Analyze(dec.Schema(), delta))
	}
	r := &incremental.Renderer{
		Dec:       dec,
		Templates: b.templates,
		EmbedOnly: b.embedOnly,
		URLFor:    prev.URLFor,
		MaxDepth:  prev.MaxDepth,
		BuiltAt:   time.Now(),
	}
	if b.telem != nil {
		r.Instrument(b.telem)
		b.telem.Counter("strudel_dynamic_cache_events_total",
			"Dynamic page-cache events (hit, miss, evict).", "event", "adopt").Add(adopted)
	}
	return r, nil
}
