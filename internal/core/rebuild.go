// Incremental rebuilds (paper Sec. 2.4, Fig. 5): the site is a view
// kept current over changing data. Rebuild takes the data change since
// the previous result — the mediator's warehouse delta, or the change
// journal of a graph set with SetDataGraph — and runs it through one
// pipeline. Only the query phase forks: with differential evaluation
// primed, the journaled ops propagate through the materialized binding
// relations and the site graph is maintained in place; otherwise the
// site-definition queries re-run in full and the new site graph is
// diffed against the previous one. Either way, only the pages in the
// reverse-reachability cone of the touched site objects re-render; the
// rest are adopted from the previous site by name. A change the
// schema cannot see is a noop, and a rebuild with no usable change
// renders in full and names the cause. A full Build is the pipeline's
// first step: the same body with no previous result.
package core

import (
	"context"
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
	// Mode is "noop" (nothing the site schema can see changed, the
	// previous result is reused), "selective" (queries re-evaluated in
	// full, only the touched cone re-rendered), "differential" (the
	// journaled mutations were propagated through materialized binding
	// relations; the queries were not re-evaluated at all) or "full"
	// (every page re-rendered; Site.Reason names the cause).
	Mode string
	// Data is the data-graph delta the rebuild keyed on: the mediator's
	// warehouse delta, or the drained change journal as graph.OpsDelta.
	// Nil only when there was none to key on (a full rebuild with no
	// delta baseline or an overflowed journal).
	Data *graph.Delta
	// Impact is the delta mapped through the site schema.
	Impact *schema.Impact
	// Site reports page-level reuse (nil in noop mode).
	Site *sitegen.DeltaStats
	// Eval reports what differential evaluation did, when the
	// differential branch ran: tuples retained vs recomputed, blocks
	// maintained vs re-bound, output lists repaired.
	Eval *struql.MatStats
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

// Rebuild brings prev up to date with the data and rebuilds the site
// incrementally: only pages the data change can reach re-render. The
// change comes from one of two places. With the mediator, Rebuild
// refreshes the sources and keys on the warehouse delta; a delta that
// does not start at prev's data — a rebuild failed after an earlier
// refresh committed — is dropped. Under SetDataGraph it drains the
// graph's change journal, whose baseline is the last successful Build
// or Rebuild: a prev other than that result, or an overflowed journal,
// has no usable delta. Without a usable delta the rebuild renders in
// full and names the cause (RebuildInfo.Summary). A nil prev runs
// Build. The result is byte-identical to a from-scratch Build over the
// same data.
func (b *Builder) Rebuild(prev *Result) (*Result, error) {
	if prev == nil || prev.Site == nil || prev.SiteGraph == nil {
		return b.Build()
	}
	if b.dataGraph != nil {
		ops, ok := b.journal.Take()
		var delta *graph.Delta
		cause := ""
		switch {
		case prev.Site != b.base:
			cause = "no delta baseline"
		case !ok:
			cause = "journal overflowed"
		default:
			delta = graph.OpsDelta(ops)
		}
		b.base = nil // the journal is drained: only a success re-anchors it
		return b.rebuild(b.rebuildResult(b.dataGraph, nil), prev, delta, ops, cause)
	}
	// Mediation runs before rebuild opens the rebuild trace, so it is
	// timed here rather than as a span of it.
	t0, a0 := time.Now(), telemetry.AllocBytes()
	base, _ := b.med.Warehouse()
	data, report, err := b.med.RefreshWithReport()
	if err != nil {
		return nil, err
	}
	medTime, medAlloc := time.Since(t0), telemetry.AllocBytes()-a0
	delta, cause := report.Warehouse, ""
	if base != prev.DataGraph || delta == nil {
		delta, cause = nil, "no delta baseline"
	}
	res, err := b.rebuild(b.rebuildResult(data, report), prev, delta, nil, cause)
	if res != nil {
		res.Stats.MediationTime, res.Stats.MediationAlloc = medTime, medAlloc
	}
	return res, err
}

// rebuildResult opens a rebuild's result, and its trace, over data.
func (b *Builder) rebuildResult(data *graph.Graph, report *mediator.RefreshReport) *Result {
	return &Result{Trace: telemetry.NewTrace("rebuild " + b.name), DataGraph: data, Refresh: report}
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

// rebuild is the one build pipeline. res holds the opened trace, the
// data graph and the refresh report; prev is the result to bring up to
// date, or nil for a full build, which renders every page and reports
// no RebuildInfo. delta is the data change since prev, and ops the same
// change as journal entries (SetDataGraph only); a non-empty cause
// names why the rebuild must re-evaluate and render in full instead.
// Only the query phase forks: with differential evaluation primed, ops
// propagate through the materialized binding relations and prev's site
// graph is maintained in place; otherwise the queries re-run in full
// and the new site graph is diffed against prev's. The pages in the
// reverse-reachability cone of the touched site objects re-render; the
// rest are adopted. A success under SetDataGraph is the journal's new
// baseline.
func (b *Builder) rebuild(res, prev *Result, delta *graph.Delta, ops []graph.Op, cause string) (out *Result, err error) {
	tr, data := res.Trace, res.DataGraph
	pl := b.buildPool()
	a0 := telemetry.AllocBytes()
	defer func() {
		tr.Finish()
		res.Stats.TotalTime = tr.Duration()
		res.Stats.TotalAlloc = res.Stats.MediationAlloc + telemetry.AllocBytes() - a0
		res.BuiltAt = time.Now()
		if err == nil && b.dataGraph != nil {
			b.base = out.Site
		}
	}()
	tr.Root().SetAttr("site", b.name)
	tr.Root().SetAttr("workers", pl.Workers())

	// NumNodes/NumEdges, not Stats(): the label census walks every edge,
	// which would put an O(site) scan on the single-digit-ms fast path.
	res.Stats.DataNodes, res.Stats.DataEdges = data.NumNodes(), data.NumEdges()
	sch := b.siteSchema()
	res.Schema = sch
	var info *RebuildInfo
	var prevSite *sitegen.Site
	if prev != nil {
		info = &RebuildInfo{Data: delta, Impact: schema.Analyze(sch, delta)}
		res.Incremental, prevSite = info, prev.Site
	}
	// Collision suffixes depend on OID enumeration order, which in-place
	// maintenance does not reproduce.
	differential := prev != nil && cause == "" && b.canDifferential() && b.mat.Valid() && prev.Site.Collisions == 0

	// Nothing the schema can see changed: the site graph — a function of
	// the data graph and the queries — is provably the previous one. The
	// materialization must still see every journaled op.
	if prev != nil && cause == "" && info.Impact.Empty() && (!differential || len(ops) == 0) {
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

	// The query phase: maintain the site graph, or re-evaluate it.
	qsp := tr.Root().Child("query")
	var site *graph.Graph
	var touched []graph.OID
	var caps []*struql.Capture
	if differential {
		st, err := b.mat.Apply(ops)
		if err != nil {
			// The apply died partway: prev's site graph may hold a partial
			// mutation, so none of it can back page adoption.
			b.mat = nil
			differential, cause = false, "differential apply aborted"
		} else {
			b.countDiff(st)
			info.Eval = st
			site, touched = prev.SiteGraph, st.Touched
			res.Stats.Bindings = st.RowsRetained + st.RowsAdded
		}
	}
	if !differential {
		caps = b.captureSet()
		qe, err := b.evalQueries(data, qsp, pl, false, caps, nil)
		if err != nil {
			return nil, err
		}
		site = qe.site
		res.Stats.Bindings = qe.bindings
	}
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

	// A nil cone asks the generator for a full render.
	var cone map[graph.OID]struct{}
	if prev != nil && cause == "" {
		if !differential {
			// Diff compares edges and memberships by name, so an object
			// outside the cone of the added and changed keys kept its
			// name, template and path: the cone contract holds for a
			// re-evaluated site graph too. Every key Diff reports for site
			// resolves in it.
			d := graph.Diff(prev.SiteGraph, site)
			for _, key := range append(d.AddedObjects, d.ChangedObjects...) {
				if oid, ok := site.ResolveKey(key); ok {
					touched = append(touched, oid)
				}
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
	htmlSite, dstats, err := gen.Regenerate(context.Background(), prevSite, cone,
		differential && !info.Eval.Renumbered)
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
	if differential && htmlSite.Collisions != 0 {
		// A from-scratch build may assign the new collision suffixes
		// differently: re-evaluate instead.
		b.mat = nil
		return b.rebuild(b.rebuildResult(data, res.Refresh), prev, delta, ops, "path collision")
	}
	res.Site = htmlSite
	if !differential {
		b.primeDifferential(data, site, caps)
	}
	if info != nil {
		if cause != "" {
			dstats.Reason = cause
		}
		info.Site = dstats
		info.Invalidated = invalidatedPaths(prev.Site, htmlSite)
		switch {
		case dstats.Full:
			info.Mode = "full"
		case differential:
			info.Mode = "differential"
		default:
			info.Mode = "selective"
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

// RebuildDynamic refreshes the mediated data graph and returns a
// renderer for click-time evaluation, carrying over the previous
// renderer's page cache for classes the refresh delta cannot affect.
// When the refresh kept the warehouse prev renders from, prev itself
// is returned. A nil prev, no delta baseline, or a delta that does not
// start at prev's data (a rebuild failed after an earlier refresh
// committed) builds a fresh (cold-cache) renderer, and so does every
// call under SetDataGraph.
func (b *Builder) RebuildDynamic(prev *incremental.Renderer) (*incremental.Renderer, error) {
	if len(b.queries) != 1 {
		return nil, fmt.Errorf("core: dynamic evaluation needs exactly one site-definition query, have %d", len(b.queries))
	}
	if b.rootColl == "" {
		return nil, fmt.Errorf("core: dynamic evaluation needs SetRootCollection")
	}
	data := b.dataGraph
	var delta *graph.Delta
	if data == nil {
		base, _ := b.med.Warehouse()
		fresh, report, err := b.med.RefreshWithReport()
		if err != nil {
			return nil, err
		}
		if prev != nil && fresh == prev.Dec.Input() {
			// The refresh re-validated the data as unchanged: the content is
			// current as of now, even though nothing was recomputed.
			prev.BuiltAt = time.Now()
			return prev, nil
		}
		data = fresh
		if prev != nil && base == prev.Dec.Input() {
			delta = report.Warehouse
		}
	} else {
		prev = nil // under SetDataGraph every renderer starts cold
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
		if delta != nil {
			adopted = dec.AdoptCache(prev.Dec, schema.Analyze(dec.Schema(), delta))
		}
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
