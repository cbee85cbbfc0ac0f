// Package core is STRUDEL's top-level API, wiring the paper's
// architecture (Fig. 1) end to end: wrappers feed the mediator, which
// warehouses an integrated data graph in the repository; one or more
// site-definition queries produce the site graph; the HTML generator
// renders the browsable site; the site schema supports verification
// of integrity constraints; and the decomposed query supports dynamic
// (click-time) evaluation.
//
// Typical use:
//
//	b := core.NewBuilder("homepage")
//	b.AddSource("refs.bib", "bibtex", bibText)
//	b.AddQuery(queryText)
//	b.AddTemplate("RootPage", rootTemplate)
//	res, err := b.Build()
//	res.Site.WriteTo("out/")
package core

import (
	"fmt"
	"time"

	"strudel/internal/graph"
	"strudel/internal/incremental"
	"strudel/internal/mediator"
	"strudel/internal/optimizer"
	"strudel/internal/pool"
	"strudel/internal/repository"
	"strudel/internal/schema"
	"strudel/internal/sitegen"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
	"strudel/internal/template"
)

// Builder assembles a STRUDEL site from sources, queries, templates
// and constraints.
type Builder struct {
	name        string
	repo        *repository.Repository
	med         *mediator.Mediator
	dataGraph   *graph.Graph // explicit data graph, bypassing the mediator
	queries     []*struql.Query
	templates   map[string]*template.Template
	embedOnly   map[string]bool
	index       string
	rootColl    string
	constraints []schema.Constraint
	optimize    bool
	workers     int
	telem       *telemetry.Registry
}

// NewBuilder creates a builder over a memory-only repository.
func NewBuilder(name string) *Builder {
	repo := repository.New("")
	return &Builder{
		name:      name,
		repo:      repo,
		med:       mediator.New(repo, "DataGraph"),
		templates: map[string]*template.Template{},
		embedOnly: map[string]bool{},
	}
}

// SetName renames the site. Manifest loaders create the builder before
// the naming directive is parsed, so the name must be settable after
// the fact; it feeds build traces, explain reports and pprof labels.
func (b *Builder) SetName(name string) { b.name = name }

// Registry exposes the predicate registry for custom predicates.
func (b *Builder) Registry() *struql.Registry { return b.med.Registry() }

// AddSource registers an external source with a built-in wrapper kind
// ("bibtex", "csv", "structured", "html", "datadef").
func (b *Builder) AddSource(name, kind, content string) error {
	return b.med.AddSource(name, kind, content)
}

// AddSourceFunc registers an external source whose content comes from
// a fetch function called on every refresh — a remote source that may
// change, fail, or hang. Pair with SetResilience to bound how failures
// are handled.
func (b *Builder) AddSourceFunc(name, kind string, fetch func() (string, error)) error {
	return b.med.AddSourceFunc(name, kind, fetch)
}

// SetResilience configures the mediator's fault tolerance: retries
// with backoff, per-fetch deadlines, and per-source circuit breakers.
// The zero value means one attempt, no deadline, no breakers.
func (b *Builder) SetResilience(cfg mediator.Resilience) { b.med.SetResilience(cfg) }

// LastRefresh reports how the most recent mediated refresh went —
// which sources are fresh, degraded (serving last-good data), or
// failed. Nil before the first refresh or when SetDataGraph bypasses
// the mediator.
func (b *Builder) LastRefresh() *mediator.RefreshReport { return b.med.LastReport() }

// AddMapping registers a GAV mediation query (its INPUT names a
// source; its output builds the integrated data graph).
func (b *Builder) AddMapping(querySrc string) error {
	q, err := struql.Parse(querySrc)
	if err != nil {
		return err
	}
	return b.med.AddMapping(q)
}

// SetDataGraph supplies the data graph directly, bypassing wrappers
// and mediation (useful when the data is already in graph form). A
// graph is never edited once a build has read it. To change the data,
// edit a copy (g.NewSibling(g.Name()), then Merge(g), which shares g's
// records copy-on-write) and set that: Rebuild keys on the delta from
// the previous result's graph to it, which reads only the records the
// two graphs do not share.
func (b *Builder) SetDataGraph(g *graph.Graph) { b.dataGraph = g }

// AddQuery appends a site-definition query. Multiple queries compose:
// they build parts of the same site graph, with stable Skolem
// identities across them. Rebuild builds a result that an earlier
// query set built from scratch.
func (b *Builder) AddQuery(src string) error {
	q, err := struql.Parse(src)
	if err != nil {
		return err
	}
	b.queries = append(b.queries, q)
	return nil
}

// AddTemplate registers an HTML template under an association key
// (object name, Skolem function, or collection).
func (b *Builder) AddTemplate(key, src string) error {
	t, err := template.Parse(key, src)
	if err != nil {
		return err
	}
	b.templates[key] = t
	return nil
}

// AddTemplates registers pre-parsed templates.
func (b *Builder) AddTemplates(ts map[string]*template.Template) {
	for k, t := range ts {
		b.templates[k] = t
	}
}

// SetEmbedOnly marks association keys whose objects are always
// embedded, never standalone pages.
func (b *Builder) SetEmbedOnly(keys ...string) {
	for _, k := range keys {
		b.embedOnly[k] = true
	}
}

// SetIndex names the association key rendered as index.html.
func (b *Builder) SetIndex(key string) { b.index = key }

// SetRootCollection names the collection holding the site roots, used
// by dynamic evaluation.
func (b *Builder) SetRootCollection(coll string) { b.rootColl = coll }

// AddConstraint registers an integrity constraint checked at build
// time against both the site schema and the concrete site graph.
func (b *Builder) AddConstraint(c schema.Constraint) {
	b.constraints = append(b.constraints, c)
}

// SetWorkers bounds the parallelism of the whole build pipeline —
// query evaluation, page generation, and dynamic materialization all
// share one worker pool per build. 0 means runtime.GOMAXPROCS(0), 1
// runs the pipeline sequentially. The built site is byte-identical at
// any worker count.
func (b *Builder) SetWorkers(n int) { b.workers = n }

// buildPool creates the per-build worker pool, instrumented when
// telemetry is attached and named for pprof goroutine labels.
func (b *Builder) buildPool() *pool.Pool {
	p := pool.New(b.workers)
	p.SetName(b.name)
	if b.telem != nil {
		p.Instrument(b.telem)
	}
	return p
}

// EnableOptimizer routes every where conjunction through the
// cost-based query optimizer with the repository's indexes instead of
// the interpreter's built-in greedy strategy (paper Sec. 2.4).
func (b *Builder) EnableOptimizer() { b.optimize = true }

// SetTelemetry attaches a metrics registry: the repository, the
// optimizer (when enabled) and dynamic evaluation all report into it,
// and builds are traced span by span regardless. Pass nil to detach.
func (b *Builder) SetTelemetry(reg *telemetry.Registry) {
	b.telem = reg
	b.med.Instrument(reg)
	if reg != nil {
		b.repo.Instrument(reg)
	}
}

// Stats reports what a build did. The phase durations are the
// durations of the corresponding spans of the build trace (see
// Result.Trace), so a printed trace timeline and Stats always agree.
// The one exception is Rebuild's MediationTime: Rebuild takes the
// data change (a mediated refresh, or the diff of a graph set with
// SetDataGraph) before its trace opens, so it times that step itself,
// and that time is not part of TotalTime.
type Stats struct {
	DataNodes, DataEdges int
	SiteNodes, SiteEdges int
	Pages                int
	// PagesReused and PagesPruned report incremental-rebuild outcomes:
	// pages carried over unrendered from the previous result, and
	// previous paths no longer produced. Both are 0 for full builds.
	PagesReused, PagesPruned int
	Bindings                 int
	MediationTime            time.Duration
	QueryTime                time.Duration
	VerifyTime               time.Duration
	GenerateTime             time.Duration
	TotalTime                time.Duration
	// Per-phase heap-allocation deltas (bytes), sampled from the
	// process-wide runtime allocation counter at the same boundaries
	// as the durations. Concurrent activity (served requests, another
	// build) is attributed to whichever phase was running — treat
	// these as profiles, not accounting.
	MediationAlloc uint64
	QueryAlloc     uint64
	VerifyAlloc    uint64
	GenerateAlloc  uint64
	TotalAlloc     uint64
}

// Result is a completed build.
type Result struct {
	DataGraph *graph.Graph
	SiteGraph *graph.Graph
	Schema    *schema.SiteSchema
	Site      *sitegen.Site
	Stats     Stats
	// BuiltAt is when the build (or rebuild) completed — including
	// no-op rebuilds, where the content was re-validated as current.
	// The serving layer reports the age of served content against it.
	BuiltAt time.Time
	// Trace is the build-scoped span tree (mediation → query → verify
	// → generate); Trace.Summary() renders a timeline.
	Trace *telemetry.Trace
	// Refresh reports per-source mediation outcomes (fresh, degraded
	// to last-good data, failed) and, from the second refresh on, the
	// warehouse-level data delta. Nil when SetDataGraph bypassed the
	// mediator.
	Refresh *mediator.RefreshReport
	// Incremental describes how a Rebuild proceeded (delta, impact,
	// page reuse). Nil for full Build calls.
	Incremental *RebuildInfo
	// Violations are constraint failures; Build returns them without
	// error so callers can decide whether to publish anyway.
	Violations []error
	// DomainWarnings flag variables of the site-definition queries
	// that are not range-restricted and therefore range over the
	// active domain (struql.RangeCheckWith).
	DomainWarnings []struql.DomainWarning
	// queries counts the site-definition queries the result was built
	// with. Queries are only ever appended, so the count names the set.
	queries int
}

// dataChange produces the data graph to build from, its delta from
// prevData, and the mediator's refresh report (nil under
// SetDataGraph). A data graph is never edited once a build has read
// it, so the delta is exact on both sources. Through the mediator it
// is the refresh's warehouse delta when the refresh started from
// prevData, and otherwise, as after a rebuild that failed once its
// refresh had committed, the diff of the two warehouses. Under
// SetDataGraph prevData itself has an empty delta, and any other graph
// its diff. A nil prevData has a nil delta.
func (b *Builder) dataChange(prevData *graph.Graph) (*graph.Graph, *graph.Delta, *mediator.RefreshReport, error) {
	if data := b.dataGraph; data != nil {
		switch prevData {
		case nil:
			return data, nil, nil, nil
		case data:
			return data, &graph.Delta{}, nil, nil
		}
		return data, graph.Diff(prevData, data), nil, nil
	}
	committed, _ := b.med.Warehouse()
	data, report, err := b.med.RefreshWithReport()
	switch {
	case err != nil:
		return nil, nil, nil, err
	case prevData == nil:
		return data, nil, report, nil
	case committed == prevData && report.Warehouse != nil:
		return data, report.Warehouse, report, nil
	}
	return data, graph.Diff(prevData, data), report, nil
}

// optimizerContext indexes the data graph and builds the planning
// context the optimizer hook evaluates conjunctions through. The graph
// is indexed, not registered: a debug evaluation over a result a
// refresh has since replaced must not put that result's graph back
// under the warehouse name.
func (b *Builder) optimizerContext(data *graph.Graph) *optimizer.Context {
	return &optimizer.Context{
		Graph:     data,
		Index:     b.repo.IndexOf(data),
		Registry:  b.Registry(),
		Telemetry: b.telem,
	}
}

// queryRun is one site-definition query's per-evaluation statistics.
type queryRun struct {
	bindings int
	newNodes int
	plan     *struql.PlanNode // nil unless profiling
}

// queryEval is the result of running all site-definition queries.
type queryEval struct {
	site     *graph.Graph
	bindings int
	perQuery []queryRun
}

// evalQueries runs the site-definition queries into one site graph,
// tracing each query as a child span of sp (which may be nil). With
// profile set, every query carries an EXPLAIN profiler and the
// per-block plans are returned; a non-nil prov records node provenance.
func (b *Builder) evalQueries(data *graph.Graph, sp *telemetry.Span, p *pool.Pool, profile bool,
	prov *struql.Provenance) (*queryEval, error) {
	if len(b.queries) == 0 {
		return nil, fmt.Errorf("core: site %q has no site-definition query", b.name)
	}
	outName := b.queries[0].Output
	if outName == "" {
		outName = b.name + "-site"
	}
	qe := &queryEval{site: data.NewSibling(outName)}
	opts := &struql.Options{Output: qe.site, Registry: b.Registry(), Pool: p, Provenance: prov}
	if b.optimize {
		// Index the data graph and plan every conjunction against it.
		octx := b.optimizerContext(data)
		opts.WherePlanner = optimizer.Hook(octx)
		if profile {
			opts.PlannerProfiled = optimizer.ProfiledHook(octx)
		}
	}
	for i, q := range b.queries {
		var prof *struql.Profiler
		if profile {
			prof = struql.NewProfiler()
		}
		opts.Profiler = prof
		var qs *telemetry.Span
		if sp != nil {
			qs = sp.Child(fmt.Sprintf("query[%d]", i))
		}
		res, err := struql.Eval(q, data, opts)
		if qs != nil {
			if err == nil {
				qs.SetAttr("bindings", res.Bindings)
				qs.SetAttr("new_nodes", res.NewNodes)
			}
			qs.Finish()
		}
		if err != nil {
			return nil, fmt.Errorf("core: evaluating site query: %w", err)
		}
		qe.bindings += res.Bindings
		qe.perQuery = append(qe.perQuery, queryRun{
			bindings: res.Bindings,
			newNodes: res.NewNodes,
			plan:     prof.Plan(),
		})
	}
	return qe, nil
}

// siteSchema merges the per-query schemas.
func (b *Builder) siteSchema() *schema.SiteSchema {
	schemas := make([]*schema.SiteSchema, len(b.queries))
	for i, q := range b.queries {
		schemas[i] = schema.Build(q)
	}
	return schema.Merge(schemas...)
}

// Build runs the full pipeline: mediate, query, verify, generate. It
// is the incremental pipeline's first step: after mediating (the first
// span of the "build <site>" trace) it runs Rebuild's body with no
// previous result, which evaluates, verifies and renders every page.
// Each phase is a child span of the build trace (Result.Trace), and the
// Stats durations are those spans' durations — the trace timeline and
// Stats cannot disagree.
func (b *Builder) Build() (*Result, error) {
	res := &Result{Trace: telemetry.NewTrace("build " + b.name)}
	a0 := telemetry.AllocBytes()
	med := res.Trace.Root().Child("mediation")
	data, _, report, err := b.dataChange(nil)
	if err == nil {
		med.SetAttr("nodes", data.NumNodes())
		med.SetAttr("edges", data.NumEdges())
	}
	med.Finish()
	res.Stats.MediationTime, res.Stats.MediationAlloc = med.Duration(), telemetry.AllocBytes()-a0
	if err != nil {
		return nil, err
	}
	res.DataGraph, res.Refresh = data, report
	return b.rebuild(res, nil, nil)
}

// BuildDynamic prepares click-time evaluation instead of full
// materialization: the first site-definition query is decomposed into
// per-page queries over the (mediated) data graph, and a renderer
// using the builder's templates is returned. RootCollection must be
// set (the precomputed entry points). It is RebuildDynamic's first
// step.
func (b *Builder) BuildDynamic() (*incremental.Renderer, error) {
	return b.RebuildDynamic(nil)
}
